"""Campaign-runner benchmark: deterministic sharding at speed.

Runs the SPF-timer sweep twice — serial (``workers=1``) and fanned out
over ``min(4, cpu_count)`` worker processes — and checks the two promises
of :mod:`repro.campaign`:

* **determinism**: the deterministic JSON reports are byte-identical;
* **speedup**: whenever the hardware has more than one core the parallel
  run must actually be faster — >= 1.5x on four or more cores, >= 1.15x
  on two or three.  The runner submits one future per trial; each trial
  simulates for seconds, so pool start-up and per-trial pickling are a
  small fraction of the work it spreads over the cores.

The measurement is recorded in ``BENCH_campaign.json`` at the repo root
so CI runs leave an auditable record of the hardware they measured on.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.campaign import run_campaign
from repro.campaign.sweeps import spf_timer_specs

BENCH_FILE = pathlib.Path(__file__).parent.parent / "BENCH_campaign.json"

#: required speedup (serial / parallel wall-clock) by available cores;
#: enforced whenever cpu_count > 1
SPEEDUP_REQUIRED_4PLUS = 1.5
SPEEDUP_REQUIRED_SMALL = 1.15


def required_speedup(cpu_count: int) -> float:
    """The speedup bar this hardware must clear (0.0 = unenforceable)."""
    if cpu_count >= 4:
        return SPEEDUP_REQUIRED_4PLUS
    if cpu_count > 1:
        return SPEEDUP_REQUIRED_SMALL
    return 0.0


def test_bench_campaign_parallel_speedup(benchmark, emit):
    cpu_count = os.cpu_count() or 1
    workers = min(4, cpu_count)
    specs = spf_timer_specs()

    t0 = time.monotonic()
    serial = run_campaign(specs, name="spf-timer", workers=1)
    serial_s = time.monotonic() - t0

    def parallel_run():
        t = time.monotonic()
        report = run_campaign(specs, name="spf-timer", workers=workers)
        return report, time.monotonic() - t

    parallel, parallel_s = benchmark.pedantic(
        parallel_run, rounds=1, iterations=1
    )

    serial_json = serial.to_json()
    identical = serial_json == parallel.to_json()
    speedup = serial_s / parallel_s if parallel_s else 0.0

    record = {
        "campaign": "spf-timer",
        "trials": len(specs),
        "cpu_count": cpu_count,
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "identical": identical,
        "speedup_bar": required_speedup(cpu_count),
        "speedup_bar_enforced": cpu_count > 1,
    }
    BENCH_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    emit(
        "Campaign runner: SPF-timer sweep, serial vs parallel\n"
        f"  trials:   {len(specs)} (f2tree + fat-tree x 4 SPF delays)\n"
        f"  cores:    {cpu_count} (using {workers} workers)\n"
        f"  serial:   {serial_s:7.1f} s\n"
        f"  parallel: {parallel_s:7.1f} s  ({speedup:.2f}x)\n"
        f"  reports byte-identical: {identical}"
    )

    assert serial.require_success() and parallel.require_success()
    assert identical, "parallel report diverged from serial"
    bar = required_speedup(cpu_count)
    if bar:
        assert speedup >= bar, (
            f"expected >= {bar}x speedup on {cpu_count} cores "
            f"with {workers} workers, got {speedup:.2f}x"
        )
