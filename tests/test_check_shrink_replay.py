"""Shrinking and replay bundles: minimal reproducers, byte-identical."""

from __future__ import annotations

import json

import pytest

from repro.check import MUTANTS, execute_check, shrink_config
from repro.check.bundle import (
    BundleError,
    bundle_digest,
    load_bundle,
    replay_bundle,
    write_bundle,
)


def _violating_setup():
    """The loop-freedom mutant padded with one irrelevant failure."""
    mutant = MUTANTS["backup-tiebreak-none"]
    config = mutant.config_factory()
    at = config.events[0][0]
    padded = config.with_events(
        tuple(sorted(config.events + ((at, "agg-1-0", "tor-1-0", None),)))
    )
    return mutant, config, padded


class TestShrink:
    def test_clean_config_returned_untouched(self):
        config = MUTANTS["backup-tiebreak-none"].config_factory()
        shrunk, outcome = shrink_config(config)  # no mutant: clean
        assert shrunk == config
        assert outcome.violations == []

    def test_drops_irrelevant_event_keeps_essential_pair(self):
        mutant, config, padded = _violating_setup()
        shrunk, outcome = shrink_config(padded, mutant=mutant)
        # the irrelevant pod-1 failure is gone; the C4 pair (both downward
        # links of the destination ToR) is essential and must survive
        assert set(shrunk.events) == set(config.events)
        assert "loop-freedom" in outcome.invariants_violated

    def test_scenario_violation_that_cannot_concretize_stays_whole(self):
        """frr-window exists only in scenario profiles; shrinking must
        notice the violation dies under concretization and return the
        original config rather than a non-reproducing 'minimization'."""
        mutant = MUTANTS["backup-routes-disabled"]
        config = mutant.config_factory()
        shrunk, outcome = shrink_config(config, mutant=mutant)
        assert shrunk == config
        assert shrunk.profile == "scenario"
        assert "frr-window" in outcome.invariants_violated


class TestBundles:
    def test_write_then_replay_reproduces_byte_identically(self, tmp_path):
        mutant, _, padded = _violating_setup()
        shrunk, outcome = shrink_config(padded, mutant=mutant)
        path = write_bundle(tmp_path / "loop.json", shrunk, outcome, mutant=mutant)
        reproduced, detail = replay_bundle(path)
        assert reproduced, detail
        data = load_bundle(path)
        assert data["mutant"] == "backup-tiebreak-none"
        assert data["spec"]["kind"] == "check"
        assert data["trace"], "bundle must embed the obs trace"
        assert {v["invariant"] for v in data["violations"]} == {"loop-freedom"}

    def test_tampered_bundle_fails_replay(self, tmp_path):
        mutant, _, padded = _violating_setup()
        shrunk, outcome = shrink_config(padded, mutant=mutant)
        path = write_bundle(tmp_path / "loop.json", shrunk, outcome, mutant=mutant)
        data = json.loads(path.read_text())
        data["violations"][0]["subject"] = "host-9-9-9"
        # re-sealed, so the edit passes the digest and meets re-execution
        data["sha256"] = bundle_digest(data)
        path.write_text(json.dumps(data))
        reproduced, detail = replay_bundle(path)
        assert not reproduced
        assert "MISMATCH" in detail

    def test_write_refuses_outcome_that_does_not_reproduce(self, tmp_path):
        """Handing write_bundle an outcome from a *different* config must
        fail its built-in reproduction proof."""
        mutant, config, padded = _violating_setup()
        clean_outcome = execute_check(config)  # no mutant: no violations
        _, violating_outcome = shrink_config(padded, mutant=mutant)
        with pytest.raises(BundleError):
            write_bundle(
                tmp_path / "bad.json", config, violating_outcome, mutant=None
            )

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(BundleError):
            load_bundle(path)


class TestFlightRecorder:
    """Every bundle carries a flight-recorder section: the last-N trace
    ring plus the failing trial's full causal span tree (ISSUE 6)."""

    @pytest.fixture(scope="class")
    def bundle_data(self, tmp_path_factory):
        mutant, _, padded = _violating_setup()
        shrunk, outcome = shrink_config(padded, mutant=mutant)
        path = write_bundle(
            tmp_path_factory.mktemp("flight") / "loop.json",
            shrunk, outcome, mutant=mutant,
        )
        return load_bundle(path)

    def test_ring_is_the_bounded_trace_tail(self, bundle_data):
        from repro.check.bundle import FLIGHT_RING_EVENTS

        flight = bundle_data["flight"]
        trace = bundle_data["trace"]
        assert flight["ring"], "flight ring must not be empty"
        assert len(flight["ring"]) <= FLIGHT_RING_EVENTS
        assert flight["ring"] == trace[-len(flight["ring"]):]
        assert flight["ring_dropped"] == max(
            0, len(trace) - FLIGHT_RING_EVENTS
        )

    def test_spans_are_a_valid_nonempty_tree(self, bundle_data):
        from repro.obs.spans import SpanTree

        spans = bundle_data["flight"]["spans"]
        assert spans is not None
        tree = SpanTree.from_dict(spans)  # validates structure
        assert len(tree) >= 1
        assert tree.root.name == "recovery"
        assert tree.root.attrs["trace_complete"] is True

    def test_stats_carry_cache_counters(self, bundle_data):
        caches = bundle_data["stats"]["caches"]
        assert set(caches) == {"spf_cache", "fib_chain"}
        assert caches["spf_cache"]["misses"] >= 0
        assert caches["fib_chain"]["hits"] + caches["fib_chain"]["misses"] > 0
