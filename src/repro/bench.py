"""Throughput benchmarks: whole trials, gated on absolute, measured floors.

``repro bench`` times recovery trials the simulator runs, end to end,
on the same box:

* ``flow_backend`` — one recovery trial
  (:func:`~repro.experiments.recovery.run_recovery` on a k=12 fat tree,
  UDP) timed on each backend through the same ``build_bundle`` path.
  Both runs must land in the same recovery class for the measured
  packet/fluid wall ratio to mean anything, and a disagreement is a
  failed floor of its own.  Beside it, the k=48 fluid scale trial
  (:func:`~repro.experiments.flowscale.run_flow_scale_trial`) with its
  wall time and peak RSS against absolute budgets — the packet backend
  cannot run that fabric, so no ratio is claimed there.

:func:`check_floors` gates it on absolute floors; ``repro bench`` exits
1 when one fails.  Where a real trial spends its time, layer by layer
(the fair-share solve included), is ``perfbench/``'s job, not this
module's.

This module is the one place under ``src/repro`` allowed to read
``time.perf_counter`` (the determinism lint allowlists it): nothing the
simulator executes ever observes these timings — they only gate CI.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

#: wall-clock budget for the flow backend's k=48 scale trial — the CI
#: smoke fails if the fluid backend can no longer finish inside it
FLOW_SCALE_BUDGET_S = 120.0

#: peak-RSS ceiling (MiB) for the same trial
FLOW_SCALE_BUDGET_MB = 900.0

#: absolute floor on the measured packet/fluid wall ratio of one
#: recovery trial run on both backends
FLOW_MIN_RATIO = 10.0

#: the fabric both backends run for the measured ratio (k=8 measures
#: only ~10x, too close to the floor to gate)
RATIO_PORTS = 12

#: the production-scale fabric only the fluid backend runs
SCALE_PORTS = 48


# ------------------------------------------------------------- flow backend


def _loss_ms(loss: Optional[int]) -> Optional[float]:
    return round(loss / 1e6, 3) if loss is not None else None


def bench_flow_backend() -> Dict[str, Any]:
    """The fluid backend's speed, measured where both backends can run.

    Runs :func:`~repro.experiments.recovery.run_recovery` on
    ``fat_tree(RATIO_PORTS, hosts_per_tor=1)`` (UDP, the paper's
    downward rack-link failure) once per backend: the packet bundle
    cold-starts and floods, the fluid one warm-starts, and everything
    after — failure, detection, SPF hold, FIB download — runs the same
    control plane.  Each wall clock includes the whole trial, set-up
    included, but not the topology build; the trial's own entry collect
    (:func:`~repro.experiments.common.trial_heap`) frees the previous
    run's garbage inside it.  Both runs are classified with
    :func:`~repro.check.differential.classify_recovery_time`; the ratio
    means something only when the classes agree, which
    :func:`check_floors` gates.

    The k=48 scale trial runs on the fluid backend alone and is reported
    as a wall time and peak RSS against ``FLOW_SCALE_BUDGET_S`` and
    ``FLOW_SCALE_BUDGET_MB``.
    """
    import resource

    from .check.differential import classify_recovery_time
    from .dataplane.params import NetworkParams
    from .experiments.flowscale import run_flow_scale_trial
    from .experiments.recovery import run_recovery
    from .topology.fattree import fat_tree

    params = NetworkParams()
    walls: Dict[str, float] = {}
    runs: Dict[str, Dict[str, Any]] = {}
    for backend in ("packet", "flow"):
        topology = fat_tree(RATIO_PORTS, hosts_per_tor=1)
        t0 = time.perf_counter()
        trial = run_recovery(
            topology, "udp", params=params.with_overrides(backend=backend)
        )
        walls[backend] = time.perf_counter() - t0
        runs[backend] = {
            "class": classify_recovery_time(trial.connectivity_loss, params),
            "loss_ms": _loss_ms(trial.connectivity_loss),
            "packets": f"{trial.packets_received}/{trial.packets_sent}",
        }

    t0 = time.perf_counter()
    scale = run_flow_scale_trial(ports=SCALE_PORTS)
    scale_s = time.perf_counter() - t0
    # the process high-water mark: the k=48 fabric dwarfs the k=12
    # runs, so this is the scale trial's footprint (KiB on Linux)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    return {
        "ports": RATIO_PORTS,
        "packet_s": round(walls["packet"], 3),
        "flow_s": round(walls["flow"], 3),
        "ratio": round(walls["packet"] / walls["flow"], 2),
        "packet": runs["packet"],
        "flow": runs["flow"],
        "scale_trial": {
            "ports": SCALE_PORTS,
            "switches": scale.n_switches,
            "links": scale.n_links,
            "wall_s": round(scale_s, 3),
            "peak_rss_mb": round(peak_rss_mb, 1),
            "budget_s": FLOW_SCALE_BUDGET_S,
            "within_budget": scale_s <= FLOW_SCALE_BUDGET_S,
            "loss_ms": _loss_ms(scale.connectivity_loss),
            "packets": f"{scale.packets_received}/{scale.packets_sent}",
            "events_processed": scale.events_processed,
            "batch_spf_runs": scale.batch_spf_runs,
            "batch_spf_hits": scale.batch_spf_hits,
            "flow_recomputes": scale.flow_recomputes,
            "path_after_complete": scale.path_after_complete,
        },
    }


# ------------------------------------------------------------ orchestration


def run_hotpath_bench() -> Dict[str, Any]:
    """Run the bench: the ``flow_backend`` section and the box's core
    count."""
    import os

    return {
        "flow_backend": bench_flow_backend(),
        "cpu_count": os.cpu_count() or 1,
    }


def check_floors(result: Dict[str, Any]) -> List[str]:
    """The absolute floors ``repro bench`` gates on; returns one
    human-readable line per failure (empty when every floor holds)."""
    flow = result.get("flow_backend")
    if flow is None:
        return ["flow_backend: section missing from the result"]
    failures: List[str] = []
    packet_class, flow_class = flow["packet"]["class"], flow["flow"]["class"]
    if packet_class != flow_class:
        failures.append(
            f"flow_backend: packet recovers in class {packet_class}, "
            f"fluid in {flow_class}"
        )
    if flow["ratio"] < FLOW_MIN_RATIO:
        failures.append(
            f"flow_backend: measured packet/fluid ratio {flow['ratio']:.1f}x "
            f"on k={flow['ports']} is below the {FLOW_MIN_RATIO:.0f}x floor"
        )
    scale = flow["scale_trial"]
    if not scale["within_budget"]:
        failures.append(
            f"flow_backend: k={scale['ports']} fluid trial took "
            f"{scale['wall_s']}s, over the {scale['budget_s']}s budget"
        )
    if scale["peak_rss_mb"] > FLOW_SCALE_BUDGET_MB:
        failures.append(
            f"flow_backend: k={scale['ports']} fluid trial peaked at {scale['peak_rss_mb']:.0f}"
            f" MiB RSS, over the {FLOW_SCALE_BUDGET_MB:.0f} MiB ceiling"
        )
    return failures


def render(result: Dict[str, Any]) -> str:
    """Human-readable summary of a bench result."""
    lines = ["Throughput benchmarks (measured floors):"]
    flow = result.get("flow_backend")
    if flow:
        packet, fluid = flow["packet"], flow["flow"]
        classes = (
            f"both {fluid['class']}" if packet["class"] == fluid["class"]
            else f"packet {packet['class']}, fluid {fluid['class']}"
        )
        lines.append(
            f"  recovery k={flow['ports']}: packet {flow['packet_s']:.2f}s, "
            f"fluid {flow['flow_s']:.2f}s -> {flow['ratio']:.1f}x "
            f"({classes}, {packet['loss_ms']} / "
            f"{fluid['loss_ms']} ms; floor {FLOW_MIN_RATIO:.0f}x)"
        )
        scale = flow["scale_trial"]
        lines.append(
            f"  fluid k={scale['ports']}: {scale['wall_s']:.1f}s wall, "
            f"{scale['peak_rss_mb']:.0f} MiB peak RSS "
            f"(budget {scale['budget_s']:.0f}s, "
            f"{'within' if scale['within_budget'] else 'OVER'})"
        )
    return "\n".join(lines)


def to_json(result: Dict[str, Any]) -> str:
    return json.dumps(result, indent=2, sort_keys=True) + "\n"
