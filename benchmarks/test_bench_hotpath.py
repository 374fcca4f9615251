"""Measured throughput floors, recorded.

Runs :func:`repro.bench.run_hotpath_bench` (the same harness behind
``repro bench``) and enforces :func:`repro.bench.check_floors`:

* fluid backend:    >= 10x the packet backend's wall on the same
  recovery trial (``run_recovery`` on a k=12 fat tree, UDP), measured
  on both backends, which must recover in the same class;
* k=48 fluid trial: inside its absolute wall-clock budget and peak-RSS
  ceiling.

The result lands in ``BENCH_hotpath.json`` at the repo root as a record;
nothing gates against the committed copy — every floor is absolute and
measured on the box that runs it.
"""

from __future__ import annotations

import json
import pathlib

from repro.bench import check_floors, render, run_hotpath_bench, to_json

BENCH_FILE = pathlib.Path(__file__).parent.parent / "BENCH_hotpath.json"

#: a result below a floor is re-measured this many extra times (a
#: noisy-neighbor CI box can depress one sample; a real regression
#: cannot pass repeatedly)
RETRIES = 2


def test_bench_hotpath(emit):
    result = run_hotpath_bench()
    for _ in range(RETRIES):
        if not check_floors(result):
            break
        retry = run_hotpath_bench()
        if len(check_floors(retry)) < len(check_floors(result)):
            result = retry

    BENCH_FILE.write_text(to_json(result))
    emit(f"{render(result)}\n  recorded in {BENCH_FILE.name}")

    failures = check_floors(result)
    assert not failures, "\n".join(failures) + "\n" + json.dumps(result, indent=2)
