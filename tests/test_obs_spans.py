"""Tests for the causal span layer: synthetic trees, live runs, exporters.

Covers the span-tree invariants (deterministic sequence-counter IDs,
child-within-parent bounds), the ring-wrap fallback path (a span whose
opening events were evicted must still close cleanly), the Chrome
trace-event / JSONL exporters, the golden fat-tree export, and the
<3%-when-disabled overhead guard.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.obs import Observability
from repro.obs.export import (
    ExportError,
    chrome_trace,
    chrome_trace_json,
    hierarchy_names,
    read_spans_jsonl,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_spans_jsonl,
)
from repro.obs.spans import (
    MECHANISM_UNKNOWN,
    SPAN_FIB_DELTA,
    SPAN_RECOVERY,
    SPAN_SPF,
    Span,
    SpanError,
    SpanTree,
    build_recovery_spans,
    counters_from_metrics,
)
from repro.obs.trace import (
    EV_FIB_INSTALL,
    EV_LINK_DETECTED,
    EV_LINK_FAIL,
    EV_PKT_DELIVER,
    EV_SPF_RUN,
    EV_SPF_SCHEDULE,
    TraceEvent,
    TraceRecorder,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def ms(value: float) -> int:
    return int(value * 1_000_000)


def deliveries(start: int, end: int, node: str = "h", interval: int = ms(1)):
    return [
        TraceEvent(t, EV_PKT_DELIVER, node, {"dport": 7000})
        for t in range(start, end, interval)
    ]


def spf_trace():
    """A hand-built OSPF recovery with per-prefix FIB change detail."""
    events = deliveries(ms(1), ms(10) + 1)
    events += [
        # pre-failure convergence activity: must NOT become leaf spans
        TraceEvent(ms(2), EV_SPF_RUN, "s1", {"hold": 0}),
        TraceEvent(
            ms(3), EV_FIB_INSTALL, "s1",
            {"installed": 4, "changed": 4, "changes": ["+10.0.0.0/24"]},
        ),
        TraceEvent(ms(10), EV_LINK_FAIL, "t1<->a1"),
        TraceEvent(ms(70), EV_LINK_DETECTED, "t1", {"link": "t1<->a1", "up": False}),
        TraceEvent(ms(71), EV_SPF_SCHEDULE, "s1", {"delay": ms(200), "hold": ms(1000)}),
        TraceEvent(ms(271), EV_SPF_RUN, "s1", {"hold": ms(1000), "cached": False}),
        TraceEvent(
            ms(281), EV_FIB_INSTALL, "s1",
            {
                "installed": 2, "changed": 2,
                "changes": ["~10.1.0.0/24", "-10.2.0.0/24"],
            },
        ),
        # an install that changed nothing contributes no fib_delta spans
        TraceEvent(ms(281), EV_FIB_INSTALL, "s2", {"installed": 0, "changed": 0}),
    ]
    events += deliveries(ms(282), ms(300))
    return events


class TestSyntheticTree:
    def tree(self):
        return build_recovery_spans(
            spf_trace(),
            counters={"events_drained": 123, "spf_cache_misses": 1},
        )

    def test_root_and_phase_hierarchy(self):
        tree = self.tree()
        assert tree.root.name == SPAN_RECOVERY
        assert tree.root.parent_id is None
        names = hierarchy_names(tree)
        for phase in (
            "detect", "flood", "spf_hold", "spf_compute",
            "fib_update", "first_packet",
        ):
            assert names[phase] == SPAN_RECOVERY

    def test_root_attrs(self):
        root = self.tree().root
        assert root.attrs["mechanism"] == "spf-reconvergence"
        assert root.attrs["trace_complete"] is True
        assert root.attrs["failed_links"] == ["t1<->a1"]
        assert root.attrs["repair_node"] == "s1"
        assert root.attrs["counters"] == {
            "events_drained": 123, "spf_cache_misses": 1,
        }

    def test_spf_leaf_lands_in_its_phase_with_attrs(self):
        tree = self.tree()
        spf_spans = tree.find(SPAN_SPF)
        assert len(spf_spans) == 1  # the warmup SPF run is scoped out
        (spf,) = spf_spans
        assert spf.node == "s1"
        assert spf.attrs == {"hold_ns": ms(1000), "cached": False}
        parent = tree.get(spf.parent_id)
        assert parent is not None and parent.name in ("spf_hold", "spf_compute")

    def test_fib_delta_children(self):
        tree = self.tree()
        deltas = tree.find(SPAN_FIB_DELTA)
        # only the post-failure install with changes; the zero-change
        # install and the warmup install contribute nothing
        assert [d.attrs["change"] for d in deltas] == [
            "~10.1.0.0/24", "-10.2.0.0/24",
        ]
        assert all(d.node == "s1" for d in deltas)
        parent = tree.get(deltas[0].parent_id)
        assert parent is not None and parent.name == "fib_update"

    def test_span_ids_are_document_order_sequence(self):
        tree = self.tree()
        assert [s.span_id for s in tree.spans] == list(
            range(1, len(tree.spans) + 1)
        )

    def test_build_is_deterministic(self):
        a = build_recovery_spans(spf_trace(), counters={"events_drained": 1})
        b = build_recovery_spans(spf_trace(), counters={"events_drained": 1})
        assert a.to_json() == b.to_json()

    def test_phase_durations_match_breakdown(self):
        from repro.obs.breakdown import analyze_recovery

        tree = self.tree()
        breakdown = analyze_recovery(spf_trace())
        assert tree.phase_durations() == {
            p.name: p.duration for p in breakdown.phases
        }

    def test_empty_trace_raises(self):
        with pytest.raises(SpanError):
            build_recovery_spans([])


class TestFallbackTree:
    def test_unattributable_trace_degrades_to_coarse_root(self):
        """A ring that lost the failure event still yields a valid tree."""
        events = deliveries(ms(50), ms(60))  # no failure, no phases
        tree = build_recovery_spans(events, evicted=250)
        assert tree.root.name == SPAN_RECOVERY
        assert tree.root.attrs["mechanism"] == MECHANISM_UNKNOWN
        assert tree.root.attrs["trace_complete"] is False
        assert tree.root.attrs["evicted"] == 250
        assert tree.root.start == ms(50)

    def test_wrapped_ring_span_still_closes(self):
        """Live wrap-around: emit a full episode through a tiny ring so
        the opening events are evicted, then build; the tree must still
        validate and close over the surviving event range."""
        recorder = TraceRecorder(capacity=8)
        for event in spf_trace():
            recorder.emit(event.time, event.kind, event.node, **event.data)
        assert recorder.evicted > 0
        tree = build_recovery_spans(recorder, evicted=recorder.evicted)
        assert tree.root.attrs["trace_complete"] is False
        survivors = recorder.events()
        assert tree.root.start <= survivors[0].time
        assert tree.root.end >= survivors[-1].time
        # validation ran at construction: every child is inside the root
        for span in tree.spans[1:]:
            assert tree.root.start <= span.start <= span.end <= tree.root.end

    def test_leaf_events_surviving_a_wrap_become_root_children(self):
        """SPF/FIB events that outlive the wrap attach directly to the
        fallback root (there are no phases to contain them)."""
        recorder = TraceRecorder(capacity=4)
        for event in deliveries(ms(1), ms(40)):
            recorder.emit(event.time, event.kind, event.node, **event.data)
        recorder.emit(ms(41), EV_SPF_RUN, "s1", hold=ms(1000), cached=True)
        recorder.emit(
            ms(42), EV_FIB_INSTALL, "s1",
            installed=1, changed=1, changes=["+10.9.0.0/24"],
        )
        assert recorder.evicted > 0
        tree = build_recovery_spans(recorder, evicted=recorder.evicted)
        leaves = tree.spans[1:]
        assert {s.name for s in leaves} == {SPAN_SPF, SPAN_FIB_DELTA}
        for span in leaves:
            assert span.parent_id == tree.root.span_id
        assert tree.phase("spf") is not None  # direct child of the root
        assert tree.find(SPAN_SPF)[0].attrs["cached"] is True


class TestSpanTreeValidation:
    def root(self):
        return Span(span_id=1, parent_id=None, name="recovery", start=0, end=100)

    def test_requires_a_root(self):
        with pytest.raises(SpanError):
            SpanTree([])

    def test_first_span_must_be_root(self):
        with pytest.raises(SpanError, match="root"):
            SpanTree([Span(span_id=1, parent_id=7, name="x", start=0, end=1)])

    def test_single_root_only(self):
        with pytest.raises(SpanError, match="more than one root"):
            SpanTree([
                self.root(),
                Span(span_id=2, parent_id=None, name="y", start=0, end=1),
            ])

    def test_ids_strictly_increasing(self):
        with pytest.raises(SpanError, match="strictly increasing"):
            SpanTree([
                self.root(),
                Span(span_id=1, parent_id=1, name="y", start=0, end=1),
            ])

    def test_parent_must_exist_and_precede(self):
        with pytest.raises(SpanError, match="unknown/later parent"):
            SpanTree([
                self.root(),
                Span(span_id=2, parent_id=3, name="y", start=0, end=1),
            ])

    def test_start_before_end(self):
        with pytest.raises(SpanError, match="start > end"):
            SpanTree([Span(span_id=1, parent_id=None, name="x", start=5, end=4)])

    def test_child_within_parent_bounds(self):
        with pytest.raises(SpanError, match="escapes"):
            SpanTree([
                self.root(),
                Span(span_id=2, parent_id=1, name="y", start=50, end=101),
            ])

    def test_from_dict_rejects_unknown_version(self):
        with pytest.raises(SpanError, match="version"):
            SpanTree.from_dict({"version": 999, "spans": []})


class TestSerialisation:
    def test_dict_round_trip(self):
        tree = build_recovery_spans(spf_trace())
        clone = SpanTree.from_dict(json.loads(tree.to_json()))
        assert clone.to_json() == tree.to_json()
        assert len(clone) == len(tree)

    def test_jsonl_round_trip(self, tmp_path):
        tree = build_recovery_spans(spf_trace())
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(tree, path) == len(tree)
        clone = read_spans_jsonl(path)
        assert clone.to_json() == tree.to_json()

    def test_jsonl_rejects_orphan_spans(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        orphan = Span(span_id=1, parent_id=9, name="x", start=0, end=1)
        path.write_text(json.dumps(orphan.to_dict()) + "\n")
        with pytest.raises(ExportError):
            read_spans_jsonl(path)

    def test_counters_from_metrics_filters_and_orders(self):
        snapshot = {
            "sim.events_executed": 42,
            "spf.cache.hits": 3,
            "pkt.delivered": 999,  # not a root counter
            "fib.chain.misses": 7.0,
        }
        assert counters_from_metrics(snapshot) == {
            "events_drained": 42,
            "fib_chain_misses": 7,
            "spf_cache_hits": 3,
        }

    def test_render_lists_every_span_once(self):
        tree = build_recovery_spans(spf_trace())
        text = tree.render()
        assert len(text.splitlines()) == len(tree)
        assert "recovery" in text and "fib_delta @s1" in text


class TestChromeExport:
    def tree(self):
        return build_recovery_spans(spf_trace())

    def test_export_validates_against_schema(self):
        assert validate_chrome_trace(chrome_trace(self.tree())) == []

    def test_lane_metadata_is_sorted_and_complete(self):
        data = chrome_trace(self.tree())
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        names = [e["args"]["name"] for e in meta]
        assert names[0] == "critical-path"
        assert names[1:] == sorted(names[1:])
        tids = [e["tid"] for e in meta]
        assert tids == list(range(len(meta)))

    def test_zero_duration_spans_become_instants(self):
        data = chrome_trace(self.tree())
        by_name = {}
        for event in data["traceEvents"]:
            by_name.setdefault(event["name"], []).append(event)
        assert all(e["ph"] == "i" and e["s"] == "t" for e in by_name["fib_delta"])
        assert all(e["ph"] == "X" for e in by_name["recovery"])
        assert all(e["ph"] == "X" for e in by_name["detect"])

    def test_export_is_byte_stable(self):
        assert chrome_trace_json(self.tree()) == chrome_trace_json(self.tree())

    def test_validate_flags_malformed_events(self):
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        assert validate_chrome_trace({"traceEvents": [
            {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": -1, "dur": 1},
        ]})
        assert validate_chrome_trace({"nope": True})
        assert validate_chrome_trace(17)
        assert validate_chrome_trace([]) == []

    def test_validate_file_raises_on_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        with pytest.raises(ExportError):
            validate_chrome_trace_file(path)
        with pytest.raises(ExportError):
            validate_chrome_trace_file(tmp_path / "missing.json")


@pytest.fixture(scope="module")
def traced_runs():
    from repro.experiments.testbed import run_testbed

    runs = {}
    for kind in ("fat-tree", "f2tree"):
        obs = Observability(enabled=True)
        runs[kind] = (run_testbed(kind, "udp", obs=obs), obs)
    return runs


def live_tree(traced_runs, kind):
    result, obs = traced_runs[kind]
    return build_recovery_spans(
        obs.trace,
        breakdown=result.breakdown,
        counters=counters_from_metrics(obs.metrics.snapshot()),
        evicted=obs.trace.evicted,
    )


class TestEndToEnd:
    def test_fat_tree_full_phase_chain(self, traced_runs):
        tree = live_tree(traced_runs, "fat-tree")
        names = hierarchy_names(tree)
        for phase in (
            "detect", "flood", "spf_hold", "spf_compute",
            "fib_update", "first_packet",
        ):
            assert names[phase] == SPAN_RECOVERY
        assert tree.find(SPAN_SPF) and tree.find(SPAN_FIB_DELTA)
        assert tree.root.attrs["mechanism"] == "spf-reconvergence"
        assert tree.root.attrs["counters"]["spf_cache_misses"] > 0

    def test_f2tree_frr_tree(self, traced_runs):
        tree = live_tree(traced_runs, "f2tree")
        assert tree.root.attrs["mechanism"] == "fast-reroute"
        names = hierarchy_names(tree)
        assert names["detect"] == SPAN_RECOVERY
        assert names["first_packet"] == SPAN_RECOVERY

    def test_live_chrome_export_validates(self, traced_runs):
        for kind in ("fat-tree", "f2tree"):
            data = chrome_trace(live_tree(traced_runs, kind))
            assert validate_chrome_trace(data) == []

    def test_golden_chrome_trace_fat_tree(self, traced_runs):
        """The canonical fat-tree recovery export, frozen byte-for-byte.

        Regenerate with:
            PYTHONPATH=src python -m repro trace --topology fat-tree \
                --chrome tests/golden/chrome_trace_fat_tree.json
        """
        golden = (GOLDEN / "chrome_trace_fat_tree.json").read_text()
        assert chrome_trace_json(live_tree(traced_runs, "fat-tree")) == golden


class _CountingObs:
    """Duck-typed disabled Observability whose ``enabled`` reads count."""

    def __init__(self) -> None:
        self.trace = TraceRecorder(enabled=False)
        from repro.obs.registry import MetricsRegistry

        self.metrics = MetricsRegistry()
        self.enabled_reads = 0

    @property
    def enabled(self) -> bool:
        self.enabled_reads += 1
        return False


class TestDisabledOverhead:
    def test_disabled_run_builds_no_spans_and_keeps_trace_empty(self):
        from repro.experiments.testbed import run_testbed

        obs = _CountingObs()
        run_testbed("fat-tree", "udp", obs=obs)
        assert len(obs.trace) == 0  # nothing recorded => nothing to span

    def test_spans_disabled_overhead_under_three_percent(self):
        """The spans layer is post-hoc: with tracing disabled its entire
        footprint is the pre-existing ``obs.enabled`` guard reads.  Bound
        them: (guard reads) x (measured per-read cost) must stay under 3%
        of the measured run time."""
        from repro.experiments.testbed import run_testbed

        # this test IS a micro-benchmark: stopwatching here bounds the
        # disabled-path overhead and never feeds simulated behaviour
        obs = _CountingObs()
        started = time.perf_counter()  # repro-lint: ignore[perf-counter]
        run_testbed("fat-tree", "udp", obs=obs)
        total_s = time.perf_counter() - started  # repro-lint: ignore[perf-counter]
        reads = obs.enabled_reads

        real = Observability(enabled=False)
        probes = 200_000
        started = time.perf_counter()  # repro-lint: ignore[perf-counter]
        for _ in range(probes):
            real.enabled  # noqa: B018 — measuring the attribute read
        per_read_s = (time.perf_counter() - started) / probes  # repro-lint: ignore[perf-counter]

        overhead = reads * per_read_s
        assert overhead < 0.03 * total_s, (
            f"{reads} guard reads x {per_read_s * 1e9:.1f} ns "
            f"= {overhead * 1e3:.1f} ms vs {total_s * 1e3:.1f} ms run"
        )
