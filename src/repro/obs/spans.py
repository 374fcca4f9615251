"""Causal span trees: one recovery episode as parent/child spans.

:mod:`repro.obs.breakdown` answers *how long* each recovery phase took;
this module answers *what caused what*.  :func:`build_recovery_spans`
turns a :class:`~repro.obs.trace.TraceRecorder` stream into a tree —

    recovery
    ├── detect
    ├── flood
    ├── spf_hold
    ├── spf_compute
    │   └── spf (one per node that ran SPF inside the phase)
    ├── fib_update
    │   └── fib_delta (one per changed prefix, bounded per install)
    └── first_packet

— where the root carries the episode's counters (events drained, SPF
cache hits/misses, FIB match-chain cache hits/misses) and every span is
stamped with integer simulated nanoseconds.  Design rules:

1. **Deterministic identity.**  Span IDs are sequence counters assigned
   in document order — never ``id()``/``hash()`` values, never wall
   clocks (the ``repro lint`` rules ``span-id`` and ``wall-clock``
   enforce this for this module).
   The same trace always yields the byte-identical tree.
2. **Post-hoc construction.**  Spans are derived from the already
   recorded trace *after* the run, so the spans layer adds literally
   zero work to hot paths while the simulation executes; with tracing
   disabled there is nothing to build from and nothing is built.
3. **Truncation-safe.**  A ring that wrapped past an episode's opening
   events (``link.fail`` evicted while the episode was still "open")
   still closes cleanly: the builder falls back to a coarse tree rooted
   at the surviving event range and marks it ``trace_complete: false``.

Trees serialise to a JSON-safe dict (:meth:`SpanTree.to_dict` /
:meth:`SpanTree.from_dict`) so they cross the campaign runner's process
boundary and embed into replay bundles; the exporters live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .breakdown import (
    MECHANISM_NONE,
    RecoveryBreakdown,
    TraceAnalysisError,
    analyze_recovery,
)
from .trace import EV_FIB_INSTALL, EV_SPF_RUN, TraceEvent

#: serialisation version of :meth:`SpanTree.to_dict`
SPANS_VERSION = 1

# -- span names --------------------------------------------------------------

#: the root span covering one failure-recovery episode
SPAN_RECOVERY = "recovery"
#: one per-node SPF computation (child of the phase it ran in)
SPAN_SPF = "spf"
#: one changed prefix of one FIB download (child of ``fib_update``)
SPAN_FIB_DELTA = "fib_delta"

#: mechanism recorded on a fallback tree built without a breakdown
MECHANISM_UNKNOWN = "unknown"

#: metric-name -> root-counter-key mapping used by
#: :func:`counters_from_metrics` (sorted for deterministic iteration)
COUNTER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("events_drained", "sim.events_executed"),
    ("fib_chain_hits", "fib.chain.hits"),
    ("fib_chain_misses", "fib.chain.misses"),
    ("spf_cache_hits", "spf.cache.hits"),
    ("spf_cache_misses", "spf.cache.misses"),
)


class SpanError(ValueError):
    """Raised for malformed span trees or traces too empty to span."""


@dataclass(frozen=True)
class Span:
    """One node of a span tree.

    ``span_id`` is a 1-based sequence number in document order;
    ``parent_id`` is ``None`` only for the root.  ``start``/``end`` are
    integer simulated nanoseconds with ``start <= end``; ``attrs`` is
    free-form JSON-safe detail.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    node: str = ""
    start: int = 0
    end: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start_ns": self.start,
            "end_ns": self.end,
            "duration_ns": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "Span":
        return cls(
            span_id=int(record["span_id"]),  # type: ignore[arg-type]
            parent_id=(
                None
                if record.get("parent_id") is None
                else int(record["parent_id"])  # type: ignore[arg-type]
            ),
            name=str(record["name"]),
            node=str(record.get("node", "")),
            start=int(record["start_ns"]),  # type: ignore[arg-type]
            end=int(record["end_ns"]),  # type: ignore[arg-type]
            attrs=dict(record.get("attrs", {})),  # type: ignore[arg-type]
        )


class SpanTree:
    """A validated, immutable-by-convention tree of :class:`Span` nodes.

    Construction validates the structural invariants the exporters and
    the campaign merge rely on: exactly one root (first span, ``parent_id
    None``), strictly increasing span IDs, every ``parent_id`` referring
    to an earlier span, ``start <= end`` everywhere, and every child
    contained in its parent's ``[start, end]`` interval.
    """

    __slots__ = ("spans", "_by_id")

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: Tuple[Span, ...] = tuple(spans)
        if not self.spans:
            raise SpanError("a span tree needs at least a root span")
        by_id: Dict[int, Span] = {}
        root = self.spans[0]
        if root.parent_id is not None:
            raise SpanError("first span must be the root (parent_id None)")
        previous_id = 0
        for span in self.spans:
            if span.span_id <= previous_id:
                raise SpanError(
                    f"span ids must be strictly increasing, got "
                    f"{span.span_id} after {previous_id}"
                )
            previous_id = span.span_id
            if span.start > span.end:
                raise SpanError(
                    f"span {span.span_id} ({span.name}) has start > end"
                )
            if span is not root:
                if span.parent_id is None:
                    raise SpanError("tree has more than one root span")
                parent = by_id.get(span.parent_id)
                if parent is None:
                    raise SpanError(
                        f"span {span.span_id} references unknown/later "
                        f"parent {span.parent_id}"
                    )
                if span.start < parent.start or span.end > parent.end:
                    raise SpanError(
                        f"span {span.span_id} ({span.name}) escapes its "
                        f"parent {parent.span_id} ({parent.name}) bounds"
                    )
            by_id[span.span_id] = span
        self._by_id = by_id

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def root(self) -> Span:
        return self.spans[0]

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def find(self, name: str) -> List[Span]:
        """Every span with the given name, in document order."""
        return [s for s in self.spans if s.name == name]

    def phase(self, name: str) -> Optional[Span]:
        """The root's direct child with the given (phase) name."""
        for span in self.spans:
            if span.parent_id == self.root.span_id and span.name == name:
                return span
        return None

    def phase_durations(self) -> Dict[str, int]:
        """``{phase name: duration_ns}`` over the root's direct children
        (per-node/per-prefix leaves excluded)."""
        out: Dict[str, int] = {}
        for span in self.spans:
            if span.parent_id == self.root.span_id and span.name not in (
                SPAN_SPF, SPAN_FIB_DELTA,
            ):
                out[span.name] = span.duration
        return out

    # ------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": SPANS_VERSION,
            "spans": [span.to_dict() for span in self.spans],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SpanTree":
        version = data.get("version")
        if version != SPANS_VERSION:
            raise SpanError(f"unsupported span-tree version {version!r}")
        records = data.get("spans")
        if not isinstance(records, list):
            raise SpanError("span-tree dict has no 'spans' list")
        return cls(Span.from_dict(record) for record in records)

    def render(self) -> str:
        """ASCII rendering of the tree, one line per span."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans[1:]:
            assert span.parent_id is not None
            children.setdefault(span.parent_id, []).append(span)

        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            label = f"{span.name}" + (f" @{span.node}" if span.node else "")
            lines.append(
                f"{'  ' * depth}{label:<{max(1, 30 - 2 * depth)}} "
                f"{span.start / 1e6:>10.3f} ms  +{span.duration / 1e6:.3f} ms"
            )
            for child in children.get(span.span_id, []):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def counters_from_metrics(
    snapshot: Mapping[str, object]
) -> Dict[str, int]:
    """Extract the root span's counters from a
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot` dict.

    Only the counters named in :data:`COUNTER_METRICS` and present in
    the snapshot appear; the result is insertion-ordered by counter key
    so it serialises deterministically.
    """
    counters: Dict[str, int] = {}
    for key, metric in COUNTER_METRICS:
        value = snapshot.get(metric)
        if isinstance(value, (int, float)):
            counters[key] = int(value)
    return counters


def _containing_phase(
    phases: List[Span], time: int, prefer: Optional[str] = None
) -> Optional[Span]:
    """The phase span whose interval contains ``time``.

    Adjacent phases share their boundary instant, so ``prefer`` names the
    phase that wins a tie (an SPF run at the hold/compute boundary belongs
    to ``spf_compute``, not to the hold that just expired).
    """
    if prefer is not None:
        for phase in phases:
            if phase.name == prefer and phase.start <= time <= phase.end:
                return phase
    for phase in phases:
        if phase.start <= time <= phase.end:
            return phase
    return None


#: cap on per-prefix ``fib_delta`` children emitted per FIB install (the
#: install's ``changes`` list is already bounded at the trace source; this
#: is defence in depth for hand-built traces)
MAX_FIB_DELTA_CHILDREN = 64


class _Builder:
    """Sequence-counter span allocation (deterministic identity)."""

    __slots__ = ("spans", "_next_id")

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 1

    def add(
        self,
        name: str,
        start: int,
        end: int,
        parent: Optional[Span] = None,
        node: str = "",
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            node=node,
            start=start,
            end=end,
            attrs=attrs or {},
        )
        self._next_id += 1
        self.spans.append(span)
        return span


def build_recovery_spans(
    events: Iterable[TraceEvent],
    dst: Optional[str] = None,
    dport: Optional[int] = None,
    breakdown: Optional[RecoveryBreakdown] = None,
    counters: Optional[Mapping[str, int]] = None,
    evicted: int = 0,
) -> SpanTree:
    """Build the causal span tree of one recovery episode.

    ``events`` is the recorded trace (a :class:`TraceRecorder`, a list,
    or events loaded from JSONL).  ``breakdown`` short-circuits the
    phase analysis when the caller already ran
    :func:`~repro.obs.breakdown.analyze_recovery`; otherwise it is run
    here, and a trace it cannot attribute (truncated ring, no monitored
    flow) degrades to a coarse fallback tree instead of failing —
    ``evicted`` (the recorder's eviction count) marks the result
    ``trace_complete: false``.  ``counters`` (see
    :func:`counters_from_metrics`) lands in the root span's attrs.

    Raises :class:`SpanError` only for a completely empty trace.
    """
    evts = sorted(events, key=lambda e: e.time)
    if not evts:
        raise SpanError("cannot build spans from an empty trace")

    if breakdown is None:
        try:
            breakdown = analyze_recovery(evts, dst=dst, dport=dport)
        except TraceAnalysisError:
            breakdown = None

    lo = evts[0].time
    hi = evts[-1].time
    if breakdown is not None:
        lo = min(lo, breakdown.failure_time)
        for phase in breakdown.phases:
            hi = max(hi, phase.end)

    builder = _Builder()
    root_attrs: Dict[str, object] = {
        "mechanism": (
            MECHANISM_UNKNOWN if breakdown is None else breakdown.mechanism
        ),
        "events": len(evts),
        "evicted": evicted,
        "trace_complete": evicted == 0,
    }
    if breakdown is not None:
        root_attrs["failed_links"] = list(breakdown.failed_links)
        if breakdown.repair_node is not None:
            root_attrs["repair_node"] = breakdown.repair_node
    if counters:
        root_attrs["counters"] = {
            key: int(counters[key]) for key in sorted(counters)
        }
    root = builder.add(SPAN_RECOVERY, lo, hi, attrs=root_attrs)

    phases: List[Span] = []
    if breakdown is not None and breakdown.mechanism != MECHANISM_NONE:
        for phase in breakdown.phases:
            phases.append(
                builder.add(phase.name, phase.start, phase.end, parent=root)
            )

    # leaf spans are scoped to the recovery episode: SPF/FIB activity from
    # before the failure (initial convergence) belongs to no phase and
    # would swamp the tree with warmup noise
    episode_start = (
        breakdown.failure_time if breakdown is not None else evts[0].time
    )
    for event in evts:
        if event.time < episode_start:
            continue
        if event.kind == EV_SPF_RUN:
            parent = _containing_phase(
                phases, event.time, prefer="spf_compute"
            ) or root
            attrs: Dict[str, object] = {}
            if "hold" in event.data:
                attrs["hold_ns"] = event.data["hold"]
            if "cached" in event.data:
                attrs["cached"] = event.data["cached"]
            if "delta" in event.data:
                # the logical LSDB-transition classification (refresh /
                # cosmetic / link-down / link-up / structural)
                attrs["delta"] = event.data["delta"]
            builder.add(
                SPAN_SPF, event.time, event.time,
                parent=parent, node=event.node, attrs=attrs,
            )
        elif event.kind == EV_FIB_INSTALL and event.data.get("changed"):
            parent = _containing_phase(
                phases, event.time, prefer="fib_update"
            ) or root
            changes = event.data.get("changes")
            if isinstance(changes, list):
                for change in changes[:MAX_FIB_DELTA_CHILDREN]:
                    builder.add(
                        SPAN_FIB_DELTA, event.time, event.time,
                        parent=parent, node=event.node,
                        attrs={"change": change},
                    )

    return SpanTree(builder.spans)
