"""Smoke test of the benchmark itself: ``pytest perfbench -q`` (about 25 s).

Outside tier-1 ``testpaths`` on purpose: it times nothing, it checks
that the benchmark still measures what BENCHMARK.json says it does.
``run.py --check`` does the work at tiny sizes (6-port fabrics): one
untraced and two traced passes per workload, emitted workload and metric
names and units equal to BENCHMARK.json's, every span's parent exists
and encloses it, self times non-negative, and the deterministic counts
repeat exactly across the two traced passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_check_passes_and_reports_every_declared_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--check", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert "check: ok" in done.stdout

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as source:
        declared = json.load(source)
    lines = json.loads(done.stdout.strip().splitlines()[-1])["workloads"]
    assert sorted(lines) == sorted(w["name"] for w in declared["workloads"])
    for line in lines.values():
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert sorted(line["metrics"]) == sorted(m["name"] for m in declared["per_layer"])

    # the traced passes leave a loadable Chrome trace per workload
    for name in lines:
        with open(tmp_path / f"{name}.chrome.json") as source:
            events = json.load(source)["traceEvents"]
        assert any(event["ph"] == "X" for event in events)
