#!/usr/bin/env python3
"""perfbench: the repo's end-to-end, layer-resolved benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed 7] [--seconds 30]
                             [--trace 0|1] [--out DIR] [--check]

Load model: closed loop, one client, one thread.  A *pass* is one
workload's trials run back to back in a fresh child process (child.py),
one child at a time; passes of several workloads are interleaved
(A B C D, A B C D, ...) until each workload has used ``--seconds``.
Every metric is a median over the workload's passes.  The two timings
are medians of *speed-corrected* seconds (child.py times a reference
kernel around every trial, because the box's speed wanders): ``wall_s``
sums the per-trial medians, ``setup_s`` is the median set-up.  Median,
quartiles and sample count of the raw per-pass values are printed
beside them.  ``--trace 1`` alternates untraced and traced passes:
end-to-end numbers only ever come from untraced ones, per-layer numbers
from the fastest traced one, and the ratio of the two ``wall_s`` is the
tracing overhead.

Prints every metric by name with its unit, checks the simulated outputs,
and ends with one JSON line (see README.md).  Exit codes: 0 measured,
1 the benchmark itself broke or ``--check`` found a problem, 2 the
environment cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import workloads
from layers import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (name, unit) of the end-to-end metrics the final JSON line carries;
#: BENCHMARK.json adds direction and bound
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
LAYER_UNITS = {name: unit for name, unit, _better, _exact in LAYER_METRICS}
#: a child that takes longer than this is killed (the driver allows 180 s
#: for a whole run)
CHILD_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Unusable(Exception):
    """The environment cannot be measured (exit code 2)."""


class Broken(Exception):
    """The benchmark itself failed (exit code 1)."""


# --------------------------------------------------------------- children

def run_child(workload: str, seed: int, size: str, traced: bool, out: str) -> Dict[str, Any]:
    spec = {
        "workload": workload, "seed": seed, "size": size, "trace": traced,
        "out": out, "spawned_at": time.time(),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise Broken(f"{workload}: pass exceeded {CHILD_TIMEOUT_S} s and was killed")
    if child.returncode == 2:
        raise Unusable(f"{workload}: child refused to measure (see its message above)")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise Broken(f"{workload}: child exited {child.returncode} without a report")
    return json.loads(lines[-1])


def run_passes(
    names: List[str], seed: int, size: str, round_traced: List[bool], seconds: float,
    out: str,
) -> Dict[str, List[Dict[str, Any]]]:
    """Interleaved rounds of passes (``round_traced``: which passes of a
    round are traced); each workload runs at least one round and stops
    once another would overrun its ``seconds``."""
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    longest = dict.fromkeys(names, 0.0)
    active = list(names)
    while active:
        for name in list(active):
            started = time.monotonic()
            for traced in round_traced:
                report = run_child(name, seed, size, traced, out)
                report["traced"] = traced
                passes[name].append(report)
            cost = time.monotonic() - started
            spent[name] += cost
            longest[name] = max(longest[name], cost)
            if spent[name] + longest[name] > seconds:
                active.remove(name)
    return passes


# ------------------------------------------------------------- aggregation

def spread(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of raw per-pass values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def corrected_wall(passes: List[Dict[str, Any]]) -> float:
    """``wall_s``: sum over a pass's trials of the trial's median
    speed-corrected time in ``passes``.

    Per trial, because a trial builds its own network and shares nothing
    with the next: the passes sample each trial's cost separately, so one
    disturbed trial does not cost the run its whole pass.
    """
    return sum(
        statistics.median(p["trial_corrected_s"][trial] for p in passes)
        for trial in passes[0]["trial_corrected_s"]
    )


def summarize(
    workload: str, seed: int, size: str, passes: List[Dict[str, Any]],
    expected: Dict[str, Any],
) -> Dict[str, Any]:
    """Everything known about one workload after its passes."""
    problems: List[str] = []
    attempted = failed = 0
    for index, report in enumerate(passes):
        wrong = workloads.check_outputs(workload, seed, size, report["outputs"], expected)
        bad = {**wrong, **report["raised"]}
        attempted += len(report["trials"])
        failed += len(bad)
        problems += [f"pass {index} trial {trial}: {why}" for trial, why in sorted(bad.items())]
        if report["outputs"] != passes[0]["outputs"]:
            problems.append(f"pass {index}: simulated outputs differ from pass 0 (same seed)")
        problems += [f"pass {index}: {p}" for p in report.get("span_problems", [])]

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    raw = {name: spread([p[name] for p in untraced]) for name, _unit in END_TO_END}
    summary: Dict[str, Any] = {
        # value: what the metric reports; the rest describes the raw passes
        "end_to_end": {
            "wall_s": {"value": corrected_wall(untraced), **raw["wall_s"]},
            "setup_s": {
                "value": statistics.median(p["setup_corrected_s"] for p in untraced),
                **raw["setup_s"],
            },
            "peak_rss_mb": {"value": raw["peak_rss_mb"]["median"], **raw["peak_rss_mb"]},
        },
        "cpu_s": spread([p["cpu_s"] for p in untraced]),
        "kernel_s": spread([k for p in untraced for k in p["kernel_s"]]),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "outputs": passes[0]["outputs"],
        "trials": passes[0]["trials"],
        "problems": problems,
    }
    if traced:
        # one pass's numbers, so that self times add up to its wall time
        fastest = min(traced, key=lambda p: p["wall_s"])
        layers: Dict[str, float] = {
            **fastest["layers"],
            "trace.overhead_ratio":
                corrected_wall(traced) / summary["end_to_end"]["wall_s"]["value"],
        }
        for name, _unit, _better, exact in LAYER_METRICS:
            if not exact:
                continue
            values = [p["layers"][name] for p in traced]
            if any(v != values[0] for v in values):
                problems.append(f"{name} does not repeat across traced passes: {values}")
        summary["per_layer"] = layers
        if size == "full":
            summary["separation"] = separation(workload, layers)
            problems += [
                f"layer separation: {rule} (got {got})"
                for rule, got, ok in summary["separation"] if not ok
            ]
    return summary


def separation(workload: str, layers: Dict[str, float]) -> List[Tuple[str, float, bool]]:
    """The layer-separation self-test: (rule, observed, holds).

    The workloads are only worth having apart while they load different
    layers; a later resizing that collapses two of them fails here.
    """
    solves = layers["sim.flow.solve_calls"]
    data_packets = (
        layers["dataplane.switch_receive_calls"] - layers["routing.on_control_calls"]
    )
    if workload.startswith("pkt-"):
        batch = layers["routing.spf_batch_calls"]
        return [
            ("routing.spf_batch_calls = 0", batch, batch == 0),
            ("sim.flow.solve_calls = 0", solves, solves == 0),
            ("data packets through SwitchNode.receive > 0", data_packets, data_packets > 0),
        ]
    if workload == "flow-fig6-k8":
        solver = ("sim.flow.solve_calls >= 500", solves, solves >= 500)
    else:
        solver = ("sim.flow.solve_calls <= 10", solves, solves <= 10)
    return [
        solver,
        ("data packets through SwitchNode.receive = 0", data_packets, data_packets == 0),
    ]


def cross_workload(
    summaries: Dict[str, Dict[str, Any]], seed: int, size: str, expected: Dict[str, Any],
) -> None:
    """Adds the numbers that need two workloads' results: ``fidelity_err``
    (packet reference: this run's ``pkt-fig6-k8`` passes, else the pinned
    outputs when they are for this seed) and the same-input wall ratio."""
    packet = summaries.get("pkt-fig6-k8")
    reference = None
    if packet:
        reference = packet["outputs"]
    elif size == "full" and seed == expected["seed"]:
        reference = expected["workloads"]["pkt-fig6-k8"]
    for name, summary in summaries.items():
        summary["fidelity_err"] = workloads.fidelity_err(
            name, summary["outputs"], reference, expected
        )
    flow = summaries.get("flow-fig6-k8")
    if packet and flow:
        flow["same_input_wall_ratio"] = (
            flow["end_to_end"]["wall_s"]["value"] / packet["end_to_end"]["wall_s"]["value"]
        )


# ----------------------------------------------------------------- output

def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def print_report(summaries: Dict[str, Dict[str, Any]], provenance: Dict[str, Any]) -> None:
    print("perfbench  " + "  ".join(f"{k}={v}" for k, v in provenance.items()))
    print("(value: what the metric reports, timings speed-corrected; then the raw "
          "per-pass median, quartiles, count)")
    print(f"\n{'workload':<16} {'metric':<14} {'unit':<9} {'value':>10} "
          f"{'raw median':>11} {'q1':>10} {'q3':>10} {'n':>3}")
    for name, summary in summaries.items():
        rows = [(metric, unit, summary["end_to_end"][metric]) for metric, unit in END_TO_END]
        rows += [("cpu_s", "s", summary["cpu_s"]), ("kernel_s", "s", summary["kernel_s"])]
        for metric, unit, s in rows:
            print(f"{name:<16} {metric:<14} {unit:<9} {s.get('value', s['median']):>10.4f} "
                  f"{s['median']:>11.4f} {s['q1']:>10.4f} {s['q3']:>10.4f} {s['n']:>3}")
        print(f"{name:<16} {'fail_share':<14} {'fraction':<9} {summary['fail_share']:>10.4f}"
              f"   ({summary['failed']} of {summary['attempted']} trials)")
        fidelity = summary["fidelity_err"]
        shown = "n/a (no packet reference for this seed)" if fidelity is None else f"{fidelity:.6f}"
        print(f"{name:<16} {'fidelity_err':<14} {'fraction':<9} {shown:>10}   (simulated)")
        if "same_input_wall_ratio" in summary:
            print(f"{name:<16} xbackend.same_input_wall_ratio = "
                  f"{summary['same_input_wall_ratio']:.3f} (wall_s / pkt-fig6-k8 wall_s)")
    traced = {n: s for n, s in summaries.items() if "per_layer" in s}
    if traced:
        print("\nper-layer (fastest traced pass; counts repeat exactly across passes;\n"
              "sim.engine.run_self_s also holds unwrapped private work: the fluid\n"
              "model's recompute bookkeeping, TCP, links and timers)")
        print(f"{'metric':<40} {'unit':<9}" + "".join(f"{n:>16}" for n in traced))
        for metric, unit in LAYER_UNITS.items():
            cells = "".join(f"{s['per_layer'][metric]:>16.6g}" for s in traced.values())
            print(f"{metric:<40} {unit:<9}{cells}")
    if any("separation" in s for s in traced.values()):
        print("\nlayer-separation self-test")
        for name, summary in traced.items():
            for rule, got, ok in summary.get("separation", []):
                print(f"  {'pass' if ok else 'FAIL'}  {name:<16} {rule} (got {got:g})")
    for name, summary in summaries.items():
        for problem in summary["problems"]:
            print(f"PROBLEM {name}: {problem}")


def contract_line(summary: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    if trace:
        metrics = {
            name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in summary["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": summary["end_to_end"][name]["value"], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


# ------------------------------------------------------------------ check

def check_names(summaries: Dict[str, Dict[str, Any]]) -> List[str]:
    """What a traced run of every workload emits, in both ``--trace``
    modes, against what BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        declared = json.load(source)
    found: List[str] = []
    if sorted(summaries) != sorted(w["name"] for w in declared["workloads"]):
        found.append(f"workloads {sorted(summaries)} differ from BENCHMARK.json")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[section]}
        for workload, summary in summaries.items():
            metrics = contract_line(summary, trace)["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != want:
                odd = sorted(set(got.items()) ^ set(want.items()))
                found.append(f"{workload}: {section} differs from BENCHMARK.json: {odd}")
            found += [f"bad name {n!r}" for n in [workload, *got] if not NAME_RE.match(n)]
    return found


# ------------------------------------------------------------------- main

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced passes and report per-layer metrics")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for result.json and trace files")
    parser.add_argument("--check", action="store_true",
                        help="self-check at tiny sizes: one untraced and two traced passes "
                             "per workload, names against BENCHMARK.json, span and repeat "
                             "invariants")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    trace = bool(args.trace) or args.check
    size = "check" if args.check else "full"
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise Unusable(f"no repro package under {os.path.join(ROOT, 'src')}")
        os.makedirs(args.out, exist_ok=True)
        expected = workloads.load_expected()
        if args.check:
            # two traced passes, so that the exact counts can be compared
            passes = run_passes(names, args.seed, size, [False, True, True], 0.0, args.out)
        else:
            passes = run_passes(
                names, args.seed, size, [False, True] if trace else [False],
                args.seconds, args.out,
            )
    except Unusable as error:
        print(f"perfbench: cannot measure: {error}", file=sys.stderr)
        return 2
    except Broken as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    summaries = {
        name: summarize(name, args.seed, size, passes[name], expected) for name in names
    }
    cross_workload(summaries, args.seed, size, expected)
    provenance = {
        **passes[names[0]][0]["provenance"],
        "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
        "size": size, "commit": git_commit(),
    }
    print_report(summaries, provenance)
    with open(os.path.join(args.out, "result.json"), "w") as out:
        json.dump({"provenance": provenance, "workloads": summaries}, out, indent=1)

    lines = {name: contract_line(summaries[name], trace) for name in names}
    status = 0
    if args.check:
        found = check_names(summaries) if not args.workload else []
        found += [f"{n}: {p}" for n, s in summaries.items() for p in s["problems"]]
        for problem in found:
            print(f"CHECK FAILED: {problem}")
        print(f"check: {'ok' if not found else 'FAILED'} ({len(names)} workloads, "
              f"{sum(len(p) for p in passes.values())} passes)")
        status = 1 if found else 0
    print(json.dumps(lines[names[0]] if args.workload else {"workloads": lines}))
    return status


if __name__ == "__main__":
    sys.exit(main())
