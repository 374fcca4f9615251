"""A trial's routing work does not depend on what ran before it.

Recovery time is per-trial arithmetic (detection, flood, SPF hold, SPF,
FIB download), so the work a trial does — and with it its cost and its
profile — must be the same whether it is the first trial of a process
or follows another one.  Every route table memo and every transition
classification therefore lives inside one trial.  The contract: run a
recovery trial twice back to back in a fresh interpreter, and count
over each run the Dijkstra passes (one per per-origin
``compute_routes``) and the LSDB transitions classified from their
changed entries.  The counts must be equal — a memo that outlives a
trial would serve the second run from the first one's entries.

The runs happen in a subprocess so that the first one really is
alone: in this process earlier tests could already have warmed any
memo that came back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

_SCRIPT = """
import json, sys
from repro.routing import spf
from repro.routing.lsdb import Fingerprint
from repro.experiments.recovery import run_recovery
from repro.core.f2tree import f2tree
from repro.topology.fattree import fat_tree

counts = {"spf": 0, "classified": 0}
dijkstra, changes_to = spf.dijkstra, Fingerprint.changes_to

def counting_dijkstra(*args):
    counts["spf"] += 1
    return dijkstra(*args)

def counting_changes_to(self, other):
    counts["classified"] += 1
    return changes_to(self, other)

spf.dijkstra = counting_dijkstra
Fingerprint.changes_to = counting_changes_to
build = {"f2tree-6": lambda: f2tree(6), "fat-tree-8": lambda: fat_tree(8)}
runs = []
for _ in range(2):
    before = dict(counts)
    run_recovery(build[sys.argv[1]](), "udp")
    runs.append({key: counts[key] - before[key] for key in counts})
print(json.dumps(runs))
"""


@pytest.mark.parametrize("topology", ["f2tree-6", "fat-tree-8"])
def test_trial_routing_work_is_independent_of_process_history(topology):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, topology],
        capture_output=True, text=True, env=env, check=True,
    )
    alone, after_identical = json.loads(done.stdout.splitlines()[-1])
    # every switch computes at cold start and again after the failure
    assert alone["spf"] > 0 and alone["classified"] > 0
    assert after_identical == alone
