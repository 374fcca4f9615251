"""Repeated-trial benchmark: one process, many trials, no drift.

A campaign worker, ``repro bench`` and a Fig 6 sweep at scale all run
trial after trial in one process.  Each trial must pay for itself
alone: the trial heap lifetime collects the previous trial's cycles on
entry, so memory does not pile up, and the SPF memos meet the previous
trial's fingerprints by their differences from an equal-content base,
so a later warm start is no slower than the first.

Runs ``TRIALS`` back-to-back ``run_flow_scale_trial(ports=PORTS)`` calls
in a fresh interpreter (so the peak RSS is theirs alone) and checks:

* peak RSS after the last trial is within ``RSS_GROWTH`` of the peak
  after trial 2 (trial 1's peak includes the first-call imports);
* the median wall clock of the later trials is within ``WALL_FACTOR``
  of trial 1's.  A k=16 trial takes about 0.2 s; on a shared 2-core
  box single trials wander by up to 1.7x and the median of seven by up
  to 1.3x, while later trials that re-sorted whole fingerprints on
  every memo hit ran a median 1.9x slower than the first.

``python benchmarks/test_bench_repeated_trials.py`` prints the per-trial
record as one JSON line.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

TRIALS = 8
PORTS = 16
#: allowed peak-RSS growth from after trial 2 to after the last trial
RSS_GROWTH = 0.05
#: allowed ratio of the later trials' median wall clock to trial 1's
WALL_FACTOR = 1.5


def run_trials() -> dict:
    """Run the trials in this process; per-trial wall (s) and peak RSS."""
    import resource

    from repro.experiments.flowscale import run_flow_scale_trial

    walls, peaks, losses = [], [], []
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        result = run_flow_scale_trial(ports=PORTS)
        walls.append(round(time.perf_counter() - t0, 3))
        # Linux reports ru_maxrss in KiB
        peaks.append(round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2))
        losses.append(result.connectivity_loss)
    return {"ports": PORTS, "wall_s": walls, "peak_rss_mb": peaks, "loss_ns": losses}


def test_bench_repeated_trials_do_not_drift(benchmark, emit):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))

    def run():
        out = subprocess.run(
            [sys.executable, __file__], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    walls, peaks = record["wall_s"], record["peak_rss_mb"]
    emit("\n".join(
        [f"Repeated trials: {TRIALS} x run_flow_scale_trial(ports={PORTS}) in one process",
         f"{'trial':>6} {'wall (s)':>9} {'peak RSS (MiB)':>15}"]
        + [f"{i + 1:>6} {w:>9.3f} {p:>15.1f}" for i, (w, p) in enumerate(zip(walls, peaks))]
    ))

    assert len(set(record["loss_ns"])) == 1, "trials of one fabric disagree"
    assert peaks[-1] <= peaks[1] * (1 + RSS_GROWTH), (
        f"peak RSS grew {peaks[1]} -> {peaks[-1]} MiB after trial 2"
    )
    later = sorted(walls[1:])
    median = later[len(later) // 2]
    assert median <= walls[0] * WALL_FACTOR, (
        f"later trials' median {median} s is over {WALL_FACTOR}x trial 1's: {walls}"
    )


if __name__ == "__main__":
    print(json.dumps(run_trials()))
