"""Tests for the exhaustive condition census and the deployment rules
``repro verify`` checks on a built fabric."""

from __future__ import annotations

import pytest

from repro.analysis.census import (
    exhaustive_condition_census,
    relevant_links,
    render_census,
)
from repro.core.f2tree import f2tree
from repro.net.fib import FibEntry
from repro.net.ip import Prefix
from repro.topology.fattree import fat_tree
from repro.topology.graph import LinkKind, NodeKind
from repro.verify import run_verification


@pytest.fixture(scope="module")
def census_env(f2_8):
    tor = f2_8.pod_members(NodeKind.TOR, 0)[-1].name
    return f2_8, tor


class TestRelevantLinks:
    def test_counts(self, census_env):
        topo, tor = census_env
        links = relevant_links(topo, tor)
        # 4 downward rack links + 4 across ring links
        assert len(links) == 8

    def test_keys_canonical(self, census_env):
        topo, tor = census_env
        for a, b in relevant_links(topo, tor):
            assert a <= b


class TestCensus:
    @pytest.fixture(scope="class")
    def results(self, census_env):
        topo, tor = census_env
        return {k: exhaustive_condition_census(topo, tor, k) for k in (1, 2, 3)}

    def test_single_failure_always_survives(self, results):
        census = results[1]
        assert census.degraded == 0
        assert census.survival_ratio == 1.0

    def test_two_failures_always_survive(self, results):
        """The §II-C theorem: any <= 2 concurrent relevant failures are
        fast-rerouted. Proven by enumeration of all 28 pairs."""
        census = results[2]
        assert census.total_subsets == 28
        assert census.degraded == 0
        assert census.survival_ratio == 1.0

    def test_three_failures_can_degrade_but_rarely(self, results):
        census = results[3]
        assert census.degraded > 0  # the C7-style patterns exist...
        assert census.survival_ratio > 0.75  # ...but they are the minority

    def test_condition_breakdown_consistent(self, results):
        census = results[2]
        affected = census.total_subsets - census.unaffected
        assert sum(census.by_condition.values()) == affected

    def test_k_too_large_rejected(self, census_env):
        topo, tor = census_env
        with pytest.raises(ValueError):
            exhaustive_condition_census(topo, tor, 99)

    def test_render(self, results):
        text = render_census(list(results.values()))
        assert "survival" in text and "100.0%" in text


def _verify(topo, mutate_model=None):
    return run_verification(topo, max_failures=1, mutate_model=mutate_model)


def _pod0_aggs(topo):
    return [n.name for n in topo.pod_members(NodeKind.AGG, 0)]


def _replace_static(switch, drop, entry=None):
    """A model mutation: withdraw ``switch``'s static ``drop`` and, when
    given, install ``entry`` in its place."""
    def mutate(model):
        kept = [e for e in model.fibs[switch] if e.prefix != Prefix(drop)]
        model.fibs[switch] = kept + ([entry] if entry is not None else [])
    return mutate


def _errors(report):
    return {key for key in report.totals if key.endswith("/error")}


class TestValidation:
    """The deployment rules of an F²Tree fabric — complete pod rings,
    port budgets, nested rightward-first backups — as ``repro verify``
    findings on a sabotaged ``f2tree(6)``."""

    def test_healthy_deployment_passes(self):
        report = _verify(f2tree(6))
        assert report.verdict == "CERTIFIED"
        assert report.totals == {}

    def test_fat_tree_passes_trivially(self):
        """No rings, no backup expectations: nothing refuted, only the
        unprotected-link warnings and the no-rings note."""
        report = _verify(fat_tree(4))
        assert report.verdict == "CERTIFIED"
        assert set(report.totals) == {
            "coverage/unprotected-downward-link/warning",
            "wiring/no-across-rings/info",
        }

    def test_missing_backup_routes_flagged(self):
        def strip_statics(model):
            for name, entries in model.fibs.items():
                model.fibs[name] = [e for e in entries if e.source != "static"]

        report = _verify(f2tree(6), mutate_model=strip_statics)
        assert report.verdict == "REFUTED"
        assert _errors(report) == {"coverage/uncovered-downward-link/error"}

    def test_wrong_next_hop_flagged(self):
        topo = f2tree(6)
        agg, _right, left = _pod0_aggs(topo)
        # sabotage: point the /16 backup leftward instead of rightward
        wrong = FibEntry(Prefix("10.11.0.0/16"), (left,), source="static")
        report = _verify(topo, _replace_static(agg, "10.11.0.0/16", wrong))
        assert "prefix-soundness/backup-preference-order/error" in report.totals
        assert any(
            f.defect == "backup-preference-order" and f.subject == agg
            for f in report.findings
        )

    def test_non_nesting_prefixes_flagged(self):
        topo = f2tree(6)
        agg, _right, left = _pod0_aggs(topo)
        # a second backup that does NOT cover the first
        stray = FibEntry(Prefix("10.20.0.0/15"), (left,), source="static")
        report = _verify(topo, _replace_static(agg, "10.10.0.0/15", stray))
        assert {
            "prefix-soundness/backup-not-nested/error",
            "prefix-soundness/backup-preference-order/error",
        } <= set(report.totals)

    def test_missing_ring_member_flagged(self):
        topo = f2tree(6)
        agg = _pod0_aggs(topo)[0]
        for link in [l for l in topo.links_of(agg) if l.kind is LinkKind.ACROSS]:
            topo.remove_link(link)
        report = _verify(topo)
        assert {
            "wiring/missing-ring-link/error",
            "coverage/uncovered-downward-link/error",
        } <= _errors(report)

    def test_loopback_coverage_is_a_warning_only(self):
        """The 4-across /13 chain covers 10.12/10.13 loopbacks — flagged
        as a warning, not an error."""
        report = _verify(f2tree(10, across_ports=4))
        assert report.totals == {
            "prefix-soundness/backup-covers-loopback/warning": 30,
        }
        assert report.verdict == "CERTIFIED"

    def test_render_lists_findings(self):
        topo = f2tree(6)
        agg = _pod0_aggs(topo)[0]
        report = _verify(topo, _replace_static(agg, "10.11.0.0/16"))
        text = report.render()
        assert "findings:" in text and agg in text
