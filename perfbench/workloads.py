"""The benchmark's workloads: what each one runs, at which size, how its
inputs come from the seed, and how its simulated outputs are checked.

Every trial goes through a public entry point of ``repro.experiments``.
``repro`` is imported inside the functions that need it: the parent
process only reads names and checks outputs, and a child's set-up time
starts before the import.

Simulated statistics (loss, packets, miss ratio, ...) have no direction.
They are the correctness check: a simulator speed-up must leave them
identical.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Optional, Tuple

#: the seed whose simulated outputs ``expected.json`` pins
PINNED_SEED = 7

#: name -> why it is here (one line each; BENCHMARK.json repeats them)
WORKLOADS: Dict[str, str] = {
    "pkt-fig4-k8": (
        "paper's headline recovery trials on the packet backend: per-packet engine, "
        "forwarding and FIB reads plus cold-start convergence; sim.flow and batch SPF idle"
    ),
    "pkt-fig6-k8": (
        "partition-aggregate under ~80 random link failures, packet backend: incremental "
        "SPF and FIB deltas under live TCP traffic; packet reference for the fluid twin"
    ),
    "flow-fig6-k8": (
        "same seeded traffic and failures as pkt-fig6-k8 on the fluid backend: fair-share "
        "solver, incidence build and path re-resolution loaded; no per-packet work"
    ),
    "flow-scale-k24": (
        "720-switch warm start with one probe flow: topology build, batch SPF, LSDB and "
        "FIB bulk load dominate and the solver is idle, so sim.flow changes bypass it"
    ),
}

Cell = Tuple[float, int, int, int]

#: ``full`` is what BENCHMARK.json measures (one pass is 2.5-5 s here, so
#: a 30 s run holds five to nine fresh-process passes); ``check`` is the
#: smoke test's.  ``cell`` is one Fig 6 run: simulated seconds, requests,
#: background flows, average concurrent failures; ``failures`` is the
#: window ``_fig6_sim_seed`` keeps each topology's failure count in.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "ports": 8, "flow_s": 1.0, "drain_s": 0.2,
        "cell": (4.0, 32, 12, 2), "failures": (38, 42), "scale_ports": 24,
    },
    "check": {
        "ports": 6, "flow_s": 0.7, "drain_s": 0.1,
        "cell": (2.0, 8, 4, 1), "failures": None, "scale_ports": 8,
    },
}

_FIG4_TRIALS = (("f2tree", "C1", "udp"), ("fat-tree", "C1", "udp"), ("f2tree", "C1", "tcp"))
_FIG6_KINDS = ("fat-tree", "f2tree")
Trial = Dict[str, Any]


def _fig6_config(cell: Cell, ports: int, sim_seed: int) -> Any:
    from repro.experiments.partition_aggregate import PartitionAggregateConfig
    from repro.sim.units import seconds

    duration, requests, background, concurrent = cell
    return PartitionAggregateConfig(
        duration=seconds(duration), n_requests=requests,
        n_background_flows=background, concurrent_failures=concurrent,
        ports=ports, seed=sim_seed,
    )


def _fig6_sim_seed(seed: int, size: Dict[str, Any]) -> int:
    """The simulator seed a Fig 6 pass runs with.

    Host cost follows the number of link failures, which the failure
    process draws from the seed (33 to 47 per topology over a dozen
    seeds: a 13 % quartile spread of wall time).  So that runs of
    different seeds measure the same amount of work, take the first of
    ``1000*seed, 1000*seed + 1, ...`` whose failure schedule on each
    topology has a count inside the size's ``failures`` window (about
    one candidate in twenty; 2 ms each).  The schedules are regenerated
    here, outside the timed trials, with the same public generator and
    named stream the experiment uses.
    """
    window = size["failures"]
    if window is None:
        return seed
    from repro.experiments.common import DEFAULT_WARMUP
    from repro.experiments.conditions import conditions_topology
    from repro.failures.injector import generate_random_failures, paper_failure_pattern
    from repro.sim.randomness import RandomStreams

    config = _fig6_config(size["cell"], size["ports"], 0)
    pattern = paper_failure_pattern(config.concurrent_failures, config.duration)
    topologies = [conditions_topology(kind, config.ports) for kind in _FIG6_KINDS]
    candidate = 1000 * seed
    while not all(
        window[0] <= len(generate_random_failures(
            topology, pattern, config.duration, RandomStreams(candidate),
            start=DEFAULT_WARMUP,
        )) <= window[1]
        for topology in topologies
    ):
        candidate += 1
    return candidate


def plan(workload: str, seed: int, size_name: str) -> List[Trial]:
    """The trials of one pass, generated from the seed alone.

    The seed is each trial's ``seed=`` (through ``_fig6_sim_seed`` on
    the Fig 6 pair) and shuffles trial order.  ``flow-scale`` has no
    random input: its seed is recorded and ignored.
    """
    size = SIZES[size_name]
    trials: List[Trial]
    if workload == "pkt-fig4-k8":
        trials = [
            {
                "id": f"{kind}-{label}-{transport}", "run": "condition", "kind": kind,
                "label": label, "transport": transport, "ports": size["ports"],
                "seed": seed, "flow_s": size["flow_s"], "drain_s": size["drain_s"],
            }
            for kind, label, transport in _FIG4_TRIALS
        ]
    elif workload in ("pkt-fig6-k8", "flow-fig6-k8"):
        sim_seed = _fig6_sim_seed(seed, size)
        backend = "packet" if workload == "pkt-fig6-k8" else "flow"
        trials = [
            {
                "id": f"{kind}-S", "run": "fig6", "backend": backend, "kind": kind,
                "cell": list(size["cell"]), "ports": size["ports"], "seed": sim_seed,
            }
            for kind in _FIG6_KINDS
        ]
    elif workload == "flow-scale-k24":
        trials = [{"id": "scale", "run": "scale", "ports": size["scale_ports"]}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(trials)
    return trials


def warm_up() -> None:
    """One short recovery on the 4-port testbed prototype: pulls in the
    lazily imported modules and runs the packet path once, so the timed
    trials do not pay first-call costs a second trial would not."""
    from repro.core import rewire_fat_tree_prototype
    from repro.experiments.recovery import run_recovery
    from repro.sim.units import milliseconds

    topology, _plan = rewire_fat_tree_prototype()
    run_recovery(
        topology, "udp", flow_duration=milliseconds(500), drain=milliseconds(100)
    )


def run_trial(trial: Trial) -> Dict[str, Any]:
    """Run one trial; returns its simulated outputs (JSON-safe)."""
    from repro.sim.units import seconds

    if trial["run"] == "condition":
        from repro.experiments.conditions import run_condition

        result = run_condition(
            trial["kind"], trial["label"], trial["transport"], ports=trial["ports"],
            seed=trial["seed"], flow_duration=seconds(trial["flow_s"]),
            drain=seconds(trial["drain_s"]),
        ).result
        return {
            "connectivity_loss_ns": result.connectivity_loss,
            "packets_sent": result.packets_sent,
            "packets_received": result.packets_received,
            "collapse_ns": result.collapse_duration,
            "path_after_complete": bool(result.path_after and result.path_after[1]),
        }
    if trial["run"] == "fig6":
        from repro.experiments import partition_aggregate as fig6

        run = (
            fig6.run_partition_aggregate
            if trial["backend"] == "packet"
            else fig6.run_flow_partition_aggregate
        )
        cell = run(trial["kind"], _fig6_config(trial["cell"], trial["ports"], trial["seed"]))
        return {
            "miss_ratio": cell.deadline_miss_ratio,
            "requests": cell.stats.total,
            "requests_completed": sum(
                1 for record in cell.stats.records if record.completed_at is not None
            ),
            "failures": cell.n_failures,
            "background_completed": cell.background_completed,
            "background_total": cell.background_total,
        }
    from repro.experiments.flowscale import run_flow_scale_trial

    scale = run_flow_scale_trial(ports=trial["ports"])
    return {
        "connectivity_loss_ns": scale.connectivity_loss,
        "packets_sent": scale.packets_sent,
        "packets_received": scale.packets_received,
        "path_after_complete": scale.path_after_complete,
        "switches": scale.n_switches,
        "events_processed": scale.events_processed,
        "batch_spf_runs": scale.batch_spf_runs,
        "batch_spf_hits": scale.batch_spf_hits,
        "flow_recomputes": scale.flow_recomputes,
    }


# ------------------------------------------------------------------ checks

def load_expected() -> Dict[str, Any]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path) as source:
        return json.load(source)


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and abs(a - b) <= 1e-9
    return a == b


def check_outputs(
    workload: str, seed: int, size_name: str,
    outputs: Dict[str, Dict[str, Any]], expected: Dict[str, Any],
) -> Dict[str, str]:
    """Trial id -> what is wrong with its simulated outputs.

    At full size the pinned seed (and ``flow-scale`` at any seed — it
    has no random input) must reproduce ``expected.json`` exactly; any
    other seed or size gets the shape checks the paper's claim implies.
    """
    wrong: Dict[str, str] = {}
    pinned = size_name == "full" and (seed == expected["seed"] or workload == "flow-scale-k24")
    if pinned:
        for trial, want in expected["workloads"][workload].items():
            got = outputs.get(trial)
            if got is None:
                continue  # raised: already counted as failed
            diff = [
                f"{key}: {got.get(key)} != {want.get(key)}"
                for key in sorted(set(want) | set(got))
                if key not in want or not _same(got.get(key), want[key])
            ]
            if diff:
                wrong[trial] = "differs from expected.json in " + ", ".join(diff)
        return wrong

    def need(trial: str, ok: bool, what: str) -> None:
        if trial in outputs and not ok and trial not in wrong:
            wrong[trial] = what

    for trial, got in outputs.items():
        if "path_after_complete" in got:
            need(trial, got["path_after_complete"], "no path after recovery")
        if got.get("packets_sent"):
            need(trial, 0 < got["packets_received"] <= got["packets_sent"],
                 "packets received outside (0, sent]")
        if "requests" in got:
            need(trial, got["requests"] > 0 and 0.0 <= got["miss_ratio"] <= 1.0,
                 "no requests or miss ratio outside [0, 1]")
    if workload == "pkt-fig4-k8":
        f2, fat, tcp = (outputs.get("-".join(t)) for t in _FIG4_TRIALS)
        if f2 is not None:
            need("f2tree-C1-udp", (f2["connectivity_loss_ns"] or 0) <= 100_000_000,
                 "F2Tree C1 loss above 100 ms")
        if f2 is not None and fat is not None:
            need("fat-tree-C1-udp",
                 (fat["connectivity_loss_ns"] or 0) > (f2["connectivity_loss_ns"] or 0),
                 "fat tree recovered no slower than F2Tree")
        if tcp is not None:
            need("f2tree-C1-tcp", tcp["collapse_ns"] is not None, "no TCP collapse measured")
    if workload in ("pkt-fig6-k8", "flow-fig6-k8"):
        fat, f2 = outputs.get("fat-tree-S"), outputs.get("f2tree-S")
        if fat is not None and f2 is not None:
            # at 32 requests one miss is 3 %: seed 22's F2Tree cell misses one
            # deadline where fat tree misses none, so allow two of slack
            need("f2tree-S", f2["miss_ratio"] <= fat["miss_ratio"] + 2 / f2["requests"],
                 "F2Tree misses more deadlines than fat tree (beyond two requests)")
    if workload == "flow-scale-k24":
        scale = outputs.get("scale")
        if scale is not None:
            need("scale", scale["connectivity_loss_ns"] is not None, "no loss measured")
    return wrong


def fidelity_err(
    workload: str, outputs: Dict[str, Dict[str, Any]],
    packet: Optional[Dict[str, Dict[str, Any]]], expected: Dict[str, Any],
) -> Optional[float]:
    """Fluid-vs-packet gap on identical input (simulated, repeats exactly).

    ``flow-fig6``: mean over both topologies of |miss ratio(flow) -
    miss ratio(packet)| against ``packet``, the outputs of ``pkt-fig6``
    for the same seed (None when there are none).  ``flow-scale``:
    relative gap of its loss to the packet backend's fat-tree C1 loss
    pinned in expected.json.  0 on the packet workloads: the packet
    backend is the reference model.
    """
    if workload.startswith("pkt-"):
        return 0.0
    if workload == "flow-fig6-k8":
        pairs = [
            (outputs[trial]["miss_ratio"], packet[trial]["miss_ratio"])
            for trial in sorted(outputs)
            if packet is not None and trial in packet
        ]
        if not pairs or len(pairs) != len(outputs):
            return None
        return sum(abs(flow - pkt) for flow, pkt in pairs) / len(pairs)
    reference = expected["workloads"]["pkt-fig4-k8"]["fat-tree-C1-udp"]["connectivity_loss_ns"]
    loss = outputs.get("scale", {}).get("connectivity_loss_ns")
    if loss is None:
        return None
    return abs(loss - reference) / reference
