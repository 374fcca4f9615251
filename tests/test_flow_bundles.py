"""Replay bundles from flow-backend trials.

The bundle machinery is backend-agnostic by design — the pinned
:class:`~repro.check.config.TrialConfig` carries the ``backend``
override like any other parameter, so a fluid-backend violation freezes,
replays byte-identically, and shrinks exactly like a packet one, with
**no** bundle format change (``BUNDLE_VERSION`` stays 1).  This suite
pins that on a real violation: the ``detection-disabled`` mutant on a
fluid-backend trial (blinded detectors black-hole the fluid probe flow
past the quiescence bound just as they black-hole packets).
"""

from __future__ import annotations

import json

import pytest

from repro.check.execute import execute_check
from repro.check.mutants import MUTANTS
from repro.check.shrink import shrink_config
from repro.check.bundle import (
    BUNDLE_VERSION,
    load_bundle,
    replay_bundle,
    write_bundle,
)
from repro.check.config import TrialConfig


@pytest.fixture(scope="module")
def flow_violation():
    """A reproducing fluid-backend violation: mutant, config, outcome."""
    mutant = MUTANTS["detection-disabled"]
    config = mutant.config_factory().with_backend("flow")
    outcome = execute_check(config, mutant=mutant)
    assert outcome.violations, "mutant did not violate on the flow backend"
    return mutant, config, outcome


def test_bundle_version_unchanged():
    """The fluid backend rides the existing format — a version bump
    would orphan every previously archived bundle for no reason."""
    assert BUNDLE_VERSION == 1


def test_flow_bundle_writes_and_replays(tmp_path, flow_violation):
    mutant, config, outcome = flow_violation
    path = write_bundle(tmp_path / "flow.json", config, outcome, mutant=mutant)

    data = load_bundle(path)
    assert data["version"] == BUNDLE_VERSION
    assert data["mutant"] == "detection-disabled"
    # the backend override travels inside the pinned config
    restored = TrialConfig.from_dict(data["config"])
    assert ("backend", "flow") in restored.overrides
    # the violating run's fluid-model stats are archived alongside
    assert data["stats"]["flow_model"]["flows"] == 1

    reproduced, summary = replay_bundle(path)
    assert reproduced, summary
    assert "byte-identical" in summary


def test_flow_bundle_flight_recorder_present(tmp_path, flow_violation):
    mutant, config, outcome = flow_violation
    path = write_bundle(tmp_path / "flow.json", config, outcome, mutant=mutant)
    flight = load_bundle(path)["flight"]
    assert flight["ring"], "flight ring is empty"
    assert flight["ring_dropped"] >= 0
    assert "spans" in flight
    # control-plane events are still event-driven under the fluid
    # backend, so the ring records real simulation traffic
    assert len(flight["ring"]) + flight["ring_dropped"] == len(
        load_bundle(path)["trace"]
    )


def test_flow_bundle_bytes_are_deterministic(tmp_path, flow_violation):
    """Two independent writes of the same violation produce identical
    files — the on-disk bundle is a pure function of the config."""
    mutant, config, outcome = flow_violation
    first = write_bundle(tmp_path / "a.json", config, outcome, mutant=mutant)
    second = write_bundle(tmp_path / "b.json", config, outcome, mutant=mutant)
    assert first.read_bytes() == second.read_bytes()


def test_flow_config_shrinks_like_packet(flow_violation):
    """ddmin over the event list works unchanged on a fluid-backend
    config: an irrelevant padded failure is dropped, the essential
    events and the violation survive."""
    mutant, config, outcome = flow_violation
    at = config.events[0][0]
    padded = config.with_events(
        tuple(sorted(config.events + ((at, "agg-1-0", "tor-1-0", None),)))
    )
    assert len(padded.events) == len(config.events) + 1
    shrunk, shrunk_outcome = shrink_config(padded, mutant=mutant)
    assert set(shrunk.events) == set(config.events)
    assert ("backend", "flow") in shrunk.overrides
    assert {v.invariant for v in shrunk_outcome.violations} == {
        v.invariant for v in outcome.violations
    }


def test_clean_flow_trial_produces_no_bundle_material(tmp_path):
    """A clean fluid trial writes an (empty-violation) bundle that
    replays clean — the harness never manufactures a violation from
    backend bookkeeping."""
    config = MUTANTS["detection-disabled"].config_factory().with_backend("flow")
    outcome = execute_check(config)
    assert outcome.violations == []
    path = write_bundle(tmp_path / "clean.json", config, outcome)
    reproduced, _ = replay_bundle(path)
    assert reproduced
    assert json.loads(path.read_text())["violations"] == []
