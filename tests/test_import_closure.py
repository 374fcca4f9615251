"""A trial process imports only what it runs.

Package ``__init__`` modules re-export nothing, so importing a trial
entry point loads the modules that trial runs and none of the tooling
beside it: campaigns (with ``multiprocessing``), the checker, the static
verifier, the lint, the analysis tools, span export and the path-vector
and SDN control planes.  Each case runs in a fresh interpreter, because
this process has long since loaded everything.

The same goes for registries: a table filled as a side effect of a
package ``__init__`` would look complete here, where earlier tests
imported the package, and be short in a fresh process.  So the
registries are read in a fresh interpreter too, through the module a
caller uses, and pinned.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from typing import Any

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: modules no trial entry point may load
TOOLING = (
    "repro.campaign",
    "repro.check",
    "repro.verify",
    "repro.lint",
    "repro.analysis",
    "repro.cli",
    "repro.bench",
    "repro.obs.spans",
    "repro.obs.export",
    "repro.routing.pathvector",
    "repro.routing.centralized",
    "multiprocessing",
    "concurrent.futures",
)

TRIAL_ENTRY_POINTS = (
    "repro.experiments.recovery",
    "repro.experiments.conditions",
    "repro.experiments.partition_aggregate",
    "repro.experiments.flowscale",
)


def fresh(code: str) -> Any:
    """Run ``code`` in a fresh interpreter; it prints one JSON value."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def loaded_after(module: str) -> list:
    return fresh(
        f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))"
    )


@pytest.mark.parametrize("module", TRIAL_ENTRY_POINTS)
def test_trial_entry_point_loads_no_tooling(module):
    loaded = loaded_after(module)
    assert module in loaded
    assert [
        name for name in loaded
        if any(name == banned or name.startswith(banned + ".") for banned in TOOLING)
    ] == []


def test_bare_package_import_loads_no_submodule():
    assert [name for name in loaded_after("repro") if name.startswith("repro.")] == []


def test_lint_rules_are_complete_through_the_engine():
    ids = fresh(
        "import json\nimport repro.lint.engine as engine\n"
        "print(json.dumps([rule.id for rule in engine.all_rules()]))"
    )
    assert ids == [
        "executor-lambda", "flow-dict-iteration", "gc-call", "heappush-unsorted",
        "module-random", "mutable-default", "perf-counter", "set-iteration",
        "sim-time-eq", "span-id", "unseeded-rng", "unsorted-json",
        "unused-suppression", "wall-clock",
    ]


def test_every_campaign_trial_kind_resolves_through_the_spec():
    kinds = fresh(
        "import json\nfrom repro.campaign.spec import registered_kinds, trial_runner\n"
        "kinds = registered_kinds()\n"
        "assert all(callable(trial_runner(kind)) for kind in kinds)\n"
        "print(json.dumps(kinds))"
    )
    assert kinds == [
        "check", "condition", "congestion", "diff", "flow-fig6", "recovery", "verify",
    ]


def test_check_mutants_are_complete_in_a_fresh_process():
    names = fresh(
        "import json\nfrom repro.check.mutants import MUTANTS\n"
        "print(json.dumps(sorted(MUTANTS)))"
    )
    assert names == [
        "backup-routes-disabled", "backup-tiebreak-none", "channel-leak",
        "detection-disabled", "fib-tiebreak-inverted", "lsa-flood-dropped",
        "spf-engine-corrupted",
    ]
