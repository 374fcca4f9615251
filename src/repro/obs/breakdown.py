"""Recovery-phase attribution: turn a trace into Table III's decomposition.

The paper argues (§I, §III) that OSPF recovery time is an arithmetic sum —

    detection (~60 ms) + LSA flooding (ms) + throttled SPF hold
    (200 ms .. 10 s) + SPF compute + FIB update (~10 ms)

— while F²Tree collapses everything after detection into a data-plane
fall-through.  :func:`analyze_recovery` reconstructs exactly that critical
path from a :class:`~repro.obs.trace.TraceRecorder` stream:

1. the failure instant (first ``link.fail``),
2. the detection instant (first ``link.detected`` down afterwards),
3. the delivery gap at the monitored destination (``pkt.deliver`` events),
4. the FIB download that repaired the path, if any (``fib.install`` with
   route changes before traffic resumed), walked back through its
   ``spf.run`` and ``spf.schedule`` events to attribute flooding vs. hold.

When no FIB install precedes the first post-outage delivery, the repair was
the data plane's longest-prefix-match fall-through (F²Tree fast reroute)
and everything between detection and the first packet is ``first_packet``.

The result is a :class:`RecoveryBreakdown` — a dataclass that serialises to
JSON (``to_dict``) and renders as an ASCII timeline
(:func:`render_breakdown`) whose phases sum exactly to
``recovered_time - failure_time``; against the measured duration of
connectivity loss the sum agrees to within one probe interval (the
difference being the sub-interval instant the last pre-failure probe
landed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import (
    EV_FIB_INSTALL,
    EV_LINK_DETECTED,
    EV_LINK_FAIL,
    EV_PKT_DELIVER,
    EV_SPF_RUN,
    EV_SPF_SCHEDULE,
    TraceEvent,
)

# Plain nanosecond constants: this module deliberately does not import
# repro.sim (the engine transitively imports repro.obs).
_MILLISECOND = 1_000_000

#: Gap threshold separating measurement noise from an outage (5 ms, the
#: same default as repro.metrics.timeseries.connectivity_loss_duration).
DEFAULT_GAP_THRESHOLD = 5 * _MILLISECOND

#: Phase names, in critical-path order (Table III columns).
PHASE_ORDER = (
    "detect", "flood", "spf_hold", "spf_compute", "fib_update", "first_packet",
)

#: Recovery mechanisms distinguishable from a trace.
MECHANISM_SPF = "spf-reconvergence"
MECHANISM_FRR = "fast-reroute"
MECHANISM_NONE = "none"


@dataclass(frozen=True)
class PhaseSpan:
    """One attributed span ``[start, end]`` of the recovery critical path."""

    name: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "duration_ns": self.duration,
        }


@dataclass
class RecoveryBreakdown:
    """Per-phase attribution of one failure-recovery episode."""

    mechanism: str
    failure_time: int
    detected_time: Optional[int] = None
    recovered_time: Optional[int] = None
    #: arrival of the last probe before the outage window (measurement edge)
    last_delivery_before: Optional[int] = None
    #: switch whose FIB download restored the path (SPF mechanism only)
    repair_node: Optional[str] = None
    phases: Tuple[PhaseSpan, ...] = ()
    #: failed links named in the trace, for the report header
    failed_links: Tuple[str, ...] = ()

    @property
    def total(self) -> int:
        """Sum of all phase durations == recovered - failure (0 if no loss)."""
        return sum(span.duration for span in self.phases)

    @property
    def connectivity_loss(self) -> Optional[int]:
        """The measured Table III metric: last-before -> first-after."""
        if self.recovered_time is None or self.last_delivery_before is None:
            return None
        return self.recovered_time - self.last_delivery_before

    def phase(self, name: str) -> Optional[PhaseSpan]:
        for span in self.phases:
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "mechanism": self.mechanism,
            "failure_time_ns": self.failure_time,
            "detected_time_ns": self.detected_time,
            "recovered_time_ns": self.recovered_time,
            "last_delivery_before_ns": self.last_delivery_before,
            "connectivity_loss_ns": self.connectivity_loss,
            "repair_node": self.repair_node,
            "failed_links": list(self.failed_links),
            "total_ns": self.total,
            "phases": [span.to_dict() for span in self.phases],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class TraceAnalysisError(ValueError):
    """Raised when a trace lacks the events an analysis needs."""


def _delivery_times(
    events: Sequence[TraceEvent],
    dst: Optional[str],
    dport: Optional[int],
) -> List[int]:
    times: List[int] = []
    for event in events:
        if event.kind != EV_PKT_DELIVER:
            continue
        if dst is not None and event.node != dst:
            continue
        if dport is not None and event.data.get("dport") != dport:
            continue
        times.append(event.time)
    return times


def _busiest_sink(events: Sequence[TraceEvent]) -> Optional[str]:
    """The node receiving the most deliveries — the monitored flow's sink."""
    counts: Dict[str, int] = {}
    for event in events:
        if event.kind == EV_PKT_DELIVER:
            counts[event.node] = counts.get(event.node, 0) + 1
    if not counts:
        return None
    return max(counts, key=lambda node: (counts[node], node))


def analyze_recovery(
    events: Iterable[TraceEvent],
    dst: Optional[str] = None,
    dport: Optional[int] = None,
    failure_time: Optional[int] = None,
    gap_threshold: int = DEFAULT_GAP_THRESHOLD,
) -> RecoveryBreakdown:
    """Attribute one failure's recovery time to its constituent phases.

    ``events`` is a chronological trace (a recorder, a list, or events
    loaded from JSONL).  ``dst``/``dport`` select the monitored flow's
    delivery events (default: the node receiving the most deliveries, any
    port).  ``failure_time`` overrides the first ``link.fail`` event.
    Raises :class:`TraceAnalysisError` when the trace begins after the
    failure (a wrapped ring lost the run-up to the outage).
    """
    evts = list(events)
    evts.sort(key=lambda e: e.time)

    fails = [e for e in evts if e.kind == EV_LINK_FAIL]
    if failure_time is None:
        if not fails:
            raise TraceAnalysisError("trace has no link.fail event")
        failure_time = fails[0].time
    if evts and evts[0].time > failure_time:
        # a wrapped ring evicted the run-up to the outage: the phases
        # would be attributed from whatever survived, silently wrong
        raise TraceAnalysisError(
            f"trace begins at {evts[0].time / _MILLISECOND:.3f} ms, after "
            f"the failure at {failure_time / _MILLISECOND:.3f} ms — the "
            "trace ring wrapped; record with a larger capacity"
        )
    failed_links = tuple(e.node for e in fails if e.time >= failure_time)

    if dst is None:
        dst = _busiest_sink(evts)
    deliveries = _delivery_times(evts, dst, dport)
    if not deliveries:
        raise TraceAnalysisError(
            "trace has no pkt.deliver events for the monitored flow "
            "(was tracing enabled during the run?)"
        )

    # The outage window: first over-threshold delivery gap ending after the
    # failure (the connectivity-loss definition of Table III).
    last_before: Optional[int] = None
    recovered: Optional[int] = None
    for earlier, later in zip(deliveries, deliveries[1:]):
        if later - earlier > gap_threshold and later > failure_time:
            last_before, recovered = earlier, later
            break

    detections = [
        e
        for e in evts
        if e.kind == EV_LINK_DETECTED
        and not e.data.get("up", True)
        and e.time >= failure_time
    ]
    detected = detections[0].time if detections else None

    if recovered is None:
        # Connectivity was never interrupted beyond the threshold (e.g. an
        # upward failure absorbed instantly by ECMP pruning).
        return RecoveryBreakdown(
            mechanism=MECHANISM_NONE,
            failure_time=failure_time,
            detected_time=detected,
            failed_links=failed_links,
        )

    if detected is None or detected > recovered:
        detected = recovered  # recovery beat detection reporting: clamp

    # The repairing FIB download: the last install that changed routes
    # before traffic resumed.  None -> the data plane fell through to a
    # backup route on its own (F²Tree fast reroute).
    repair: Optional[TraceEvent] = None
    for event in evts:
        if (
            event.kind == EV_FIB_INSTALL
            and failure_time < event.time <= recovered
            and event.data.get("changed", 0)
        ):
            repair = event

    spans: List[PhaseSpan] = [PhaseSpan("detect", failure_time, detected)]
    if repair is None:
        mechanism = MECHANISM_FRR
        repair_node = None
        spans.append(PhaseSpan("first_packet", detected, recovered))
    else:
        mechanism = MECHANISM_SPF
        repair_node = repair.node
        spf_run = max(
            (
                e.time
                for e in evts
                if e.kind == EV_SPF_RUN
                and e.node == repair_node
                and e.time <= repair.time
            ),
            default=repair.time,
        )
        scheduled = max(
            (
                e.time
                for e in evts
                if e.kind == EV_SPF_SCHEDULE
                and e.node == repair_node
                and e.time <= spf_run
            ),
            default=spf_run,
        )
        # Clamp to a monotone chain: a schedule armed before this failure's
        # detection (e.g. residual churn) attributes its wait to spf_hold.
        scheduled = max(scheduled, detected)
        spf_run = max(spf_run, scheduled)
        install = max(repair.time, spf_run)
        spans.append(PhaseSpan("flood", detected, scheduled))
        spans.append(PhaseSpan("spf_hold", scheduled, spf_run))
        # SPF computation is instantaneous in the simulator (the paper's
        # compute cost is folded into the hold/flood timers); keep the
        # column so the table matches Table III's shape.
        spans.append(PhaseSpan("spf_compute", spf_run, spf_run))
        spans.append(PhaseSpan("fib_update", spf_run, install))
        spans.append(PhaseSpan("first_packet", install, recovered))

    return RecoveryBreakdown(
        mechanism=mechanism,
        failure_time=failure_time,
        detected_time=detected,
        recovered_time=recovered,
        last_delivery_before=last_before,
        repair_node=repair_node,
        phases=tuple(spans),
        failed_links=failed_links,
    )


def render_breakdown(breakdown: RecoveryBreakdown, width: int = 40) -> str:
    """ASCII timeline of the attributed phases (one bar per phase)."""
    header = [
        f"recovery mechanism: {breakdown.mechanism}",
        f"failed link(s):     {', '.join(breakdown.failed_links) or '(unknown)'}",
        f"failure at          {breakdown.failure_time / _MILLISECOND:.3f} ms",
    ]
    if breakdown.mechanism == MECHANISM_NONE:
        header.append("no connectivity loss beyond the gap threshold")
        return "\n".join(header)
    if breakdown.repair_node is not None:
        header.append(f"repaired by         {breakdown.repair_node} (FIB download)")
    else:
        header.append("repaired by         data-plane backup-route fall-through")
    assert breakdown.recovered_time is not None
    total = breakdown.total or 1
    header.append(
        f"recovered at        {breakdown.recovered_time / _MILLISECOND:.3f} ms"
        f"  (total {total / _MILLISECOND:.3f} ms after failure)"
    )
    loss = breakdown.connectivity_loss
    if loss is not None:
        header.append(
            f"measured loss       {loss / _MILLISECOND:.3f} ms"
            " (last delivery before -> first after)"
        )
    lines = header + [""]
    for span in breakdown.phases:
        bar = "#" * max(
            round(span.duration / total * width), 1 if span.duration else 0
        )
        lines.append(
            f"  {span.name:<13} {span.duration / _MILLISECOND:>10.3f} ms "
            f"|{bar:<{width}}|"
        )
    lines.append(f"  {'sum':<13} {total / _MILLISECOND:>10.3f} ms")
    return "\n".join(lines)
