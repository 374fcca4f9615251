"""Tests for the recovery-phase analyzer: synthetic traces and live runs.

The synthetic tests exercise the attribution logic event-by-event; the
end-to-end tests run the §III testbed experiment traced and check the
paper's central claim numerically: the phase sum equals the measured
duration of connectivity loss to within one probe interval, for both the
OSPF-reconvergence and the F²Tree fast-reroute mechanisms.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs import Observability
from repro.obs.breakdown import (
    MECHANISM_FRR,
    MECHANISM_NONE,
    MECHANISM_SPF,
    PHASE_ORDER,
    RecoveryBreakdown,
    TraceAnalysisError,
    analyze_recovery,
    render_breakdown,
)
from repro.obs.trace import (
    EV_FIB_INSTALL,
    EV_LINK_DETECTED,
    EV_LINK_FAIL,
    EV_PKT_DELIVER,
    EV_SPF_RUN,
    EV_SPF_SCHEDULE,
    TraceEvent,
    replay,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: UDP probe interval of the monitored flow (1448 B every 100 us).
PROBE_INTERVAL = 100_000


def ms(value: float) -> int:
    return int(value * 1_000_000)


def deliveries(start: int, end: int, node: str = "h", interval: int = ms(1)):
    return [
        TraceEvent(t, EV_PKT_DELIVER, node, {"dport": 7000})
        for t in range(start, end, interval)
    ]


def spf_trace():
    """A hand-built OSPF recovery: fail 10ms, detect 70, SPF 271, FIB 281."""
    events = deliveries(ms(1), ms(10) + 1)
    events += [
        TraceEvent(ms(10), EV_LINK_FAIL, "t1<->a1"),
        TraceEvent(ms(70), EV_LINK_DETECTED, "t1", {"link": "t1<->a1", "up": False}),
        TraceEvent(ms(71), EV_SPF_SCHEDULE, "s1", {"delay": ms(200), "hold": ms(1000)}),
        TraceEvent(ms(271), EV_SPF_RUN, "s1", {"hold": ms(1000)}),
        TraceEvent(ms(281), EV_FIB_INSTALL, "s1", {"installed": 2, "changed": 2}),
        # an install that changed nothing must not claim the repair
        TraceEvent(ms(281), EV_FIB_INSTALL, "s2", {"installed": 0, "changed": 0}),
    ]
    events += deliveries(ms(282), ms(300))
    return events


class TestSyntheticSpf:
    def test_mechanism_and_phases(self):
        b = analyze_recovery(spf_trace())
        assert b.mechanism == MECHANISM_SPF
        assert b.repair_node == "s1"
        assert b.failed_links == ("t1<->a1",)
        assert [p.name for p in b.phases] == list(PHASE_ORDER)

    def test_phase_durations(self):
        b = analyze_recovery(spf_trace())
        assert b.phase("detect").duration == ms(60)
        assert b.phase("flood").duration == ms(1)
        assert b.phase("spf_hold").duration == ms(200)
        assert b.phase("spf_compute").duration == 0
        assert b.phase("fib_update").duration == ms(10)
        assert b.phase("first_packet").duration == ms(1)

    def test_phases_sum_to_recovery_span(self):
        b = analyze_recovery(spf_trace())
        assert b.total == b.recovered_time - b.failure_time == ms(272)
        assert b.connectivity_loss == b.recovered_time - b.last_delivery_before

    def test_json_round_trip(self):
        b = analyze_recovery(spf_trace())
        data = json.loads(b.to_json())
        assert data["mechanism"] == MECHANISM_SPF
        assert data["total_ns"] == ms(272)
        assert [p["name"] for p in data["phases"]] == list(PHASE_ORDER)

    def test_render_lists_every_phase(self):
        text = render_breakdown(analyze_recovery(spf_trace()))
        for name in PHASE_ORDER:
            assert name in text
        assert "spf-reconvergence" in text
        assert "272.000 ms" in text


class TestSyntheticFrr:
    def trace(self):
        events = deliveries(ms(1), ms(10) + 1)
        events += [
            TraceEvent(ms(10), EV_LINK_FAIL, "t1<->a1"),
            TraceEvent(ms(70), EV_LINK_DETECTED, "t1", {"up": False}),
        ]
        events += deliveries(ms(70) + ms(1) // 10, ms(100))
        return events

    def test_mechanism_and_phases(self):
        b = analyze_recovery(self.trace())
        assert b.mechanism == MECHANISM_FRR
        assert b.repair_node is None
        assert [p.name for p in b.phases] == ["detect", "first_packet"]
        assert b.phase("detect").duration == ms(60)
        assert b.total == b.recovered_time - b.failure_time

    def test_render_names_the_fall_through(self):
        assert "fall-through" in render_breakdown(analyze_recovery(self.trace()))


class TestSyntheticNone:
    def test_uninterrupted_flow(self):
        events = [TraceEvent(ms(10), EV_LINK_FAIL, "x<->y")]
        events += deliveries(ms(1), ms(100))
        b = analyze_recovery(events)
        assert b.mechanism == MECHANISM_NONE
        assert b.recovered_time is None and b.phases == ()
        assert "no connectivity loss" in render_breakdown(b)


class TestAnalyzerSelectors:
    def test_busiest_sink_wins_by_default(self):
        events = spf_trace() + deliveries(ms(1), ms(5), node="other")
        assert analyze_recovery(events).mechanism == MECHANISM_SPF

    def test_dport_filter(self):
        noise = [
            TraceEvent(t, EV_PKT_DELIVER, "h", {"dport": 9})
            for t in range(ms(10), ms(300), ms(1))
        ]
        b = analyze_recovery(spf_trace() + noise, dst="h", dport=7000)
        assert b.mechanism == MECHANISM_SPF
        # without the filter the port-9 stream hides the gap
        assert analyze_recovery(spf_trace() + noise).mechanism == MECHANISM_NONE

    def test_explicit_failure_time_overrides(self):
        events = deliveries(ms(1), ms(10) + 1) + deliveries(ms(50), ms(60))
        b = analyze_recovery(events, failure_time=ms(12))
        assert b.failure_time == ms(12)
        assert b.mechanism == MECHANISM_FRR  # no install in the trace

    def test_missing_failure_raises(self):
        with pytest.raises(TraceAnalysisError):
            analyze_recovery(deliveries(ms(1), ms(5)))

    def test_missing_deliveries_raises(self):
        with pytest.raises(TraceAnalysisError):
            analyze_recovery([TraceEvent(ms(1), EV_LINK_FAIL, "x<->y")])

    def test_wrapped_ring_raises_instead_of_misattributing(self):
        """A ring that evicted everything up to past the failure holds
        only post-outage deliveries: without the check it reports
        mechanism ``none`` with no phases."""
        recorder = replay(spf_trace(), capacity=20)
        assert recorder.evicted > 0
        assert next(iter(recorder)).time > ms(10)
        with pytest.raises(TraceAnalysisError, match="ring wrapped"):
            analyze_recovery(recorder, failure_time=ms(10))

    def test_trace_starting_at_the_failure_is_complete(self):
        events = [e for e in spf_trace() if e.time >= ms(10)]
        assert analyze_recovery(events, failure_time=ms(10)).failure_time == ms(10)


@pytest.fixture(scope="module")
def traced_runs():
    from repro.experiments.testbed import run_testbed

    runs = {}
    for kind in ("fat-tree", "f2tree"):
        obs = Observability(enabled=True)
        runs[kind] = (run_testbed(kind, "udp", obs=obs), obs)
    return runs


class TestEndToEnd:
    @pytest.mark.parametrize("kind", ["fat-tree", "f2tree"])
    def test_phase_sum_matches_measured_loss(self, traced_runs, kind):
        result, _obs = traced_runs[kind]
        b = result.breakdown
        assert b is not None
        # Table III's claim, verified numerically: the attributed phases
        # sum to the measured connectivity loss within one probe interval.
        assert abs(b.total - result.connectivity_loss) <= PROBE_INTERVAL
        assert b.connectivity_loss == result.connectivity_loss

    def test_mechanisms_match_the_paper(self, traced_runs):
        assert traced_runs["fat-tree"][0].breakdown.mechanism == MECHANISM_SPF
        assert traced_runs["f2tree"][0].breakdown.mechanism == MECHANISM_FRR

    def test_trace_not_truncated(self, traced_runs):
        for _result, obs in traced_runs.values():
            assert obs.trace.evicted == 0

    def test_golden_breakdown_fat_tree(self, traced_runs):
        """The canonical downward-failure decomposition, frozen.

        Regenerate with:
            PYTHONPATH=src python -m repro recover --topology fat-tree --json
        """
        golden = json.loads((GOLDEN / "recovery_breakdown_fat_tree.json").read_text())
        actual = traced_runs["fat-tree"][0].breakdown.to_dict()
        assert actual == golden

    def test_golden_breakdown_f2tree(self, traced_runs):
        golden = json.loads((GOLDEN / "recovery_breakdown_f2tree.json").read_text())
        actual = traced_runs["f2tree"][0].breakdown.to_dict()
        assert actual == golden


def test_breakdown_defaults_are_empty():
    b = RecoveryBreakdown(mechanism=MECHANISM_NONE, failure_time=0)
    assert b.total == 0
    assert b.connectivity_loss is None
    assert b.phase("detect") is None
