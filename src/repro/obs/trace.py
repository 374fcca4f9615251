"""Event tracing: typed, timestamped records in a bounded ring buffer.

The recorder is the write side of the observability layer.  Design goals,
in order:

1. **Zero cost when disabled.**  Hot paths (packet forwarding, LSA
   flooding, the event loop) check a single cached ``enabled`` attribute
   before building any event; cold paths (link failures, LSA origination,
   SPF runs) call :meth:`TraceRecorder.emit` unconditionally and the
   recorder returns immediately when disabled.
2. **Bounded memory.**  Events live in a ``deque(maxlen=capacity)`` ring;
   long simulations evict the oldest events instead of growing without
   limit.  ``evicted`` counts what was lost so analyzers can tell a
   truncated trace from a complete one.
3. **No simulator dependency.**  Timestamps are plain integer nanoseconds
   supplied by the caller, so this module imports nothing from
   :mod:`repro.sim` (the engine imports *us*).

Event kinds are dotted strings (``"link.fail"``, ``"spf.run"``); the
canonical kinds emitted by the instrumented layers are the ``EV_*``
constants below.  Arbitrary JSON-serialisable key/value data rides in
``TraceEvent.data`` so traces round-trip through JSONL files
(:meth:`TraceRecorder.write_jsonl` / :func:`read_jsonl`).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

# -- canonical event kinds ---------------------------------------------------

#: A link actually went down (both directions).
EV_LINK_FAIL = "link.fail"
#: A link actually came back up.
EV_LINK_RESTORE = "link.restore"
#: An endpoint's failure detection changed its mind about a link
#: (``data: link, peer, up``) — the start of every recovery story.
EV_LINK_DETECTED = "link.detected"
#: A router originated a new LSA (``data: seq, neighbors``).
EV_LSA_ORIGINATE = "lsa.originate"
#: A router accepted flooded LSAs it had not seen (``data: count, sender``).
EV_LSA_ACCEPT = "lsa.accept"
#: The SPF throttle armed its timer (``data: delay, hold``).
EV_SPF_SCHEDULE = "spf.schedule"
#: An SPF computation ran (``data: hold``).
EV_SPF_RUN = "spf.run"
#: A FIB download completed (``data: installed, withdrawn, changed``).
EV_FIB_INSTALL = "fib.install"
#: A lookup fell through past dead longer matches
#: (``data: prefix, source, depth``) — F²Tree's fast reroute in action.
EV_FIB_FALLTHROUGH = "fib.fallthrough"
#: A packet was delivered to a local handler on a host/switch
#: (``data: proto, sport, dport, size, hops``).
EV_PKT_DELIVER = "pkt.deliver"
#: A packet was dropped (``data: reason``).
EV_PKT_DROP = "pkt.drop"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped trace record.

    ``time`` is integer simulated nanoseconds, ``kind`` a dotted event
    type, ``node`` the emitting entity (switch/host/link name, or ``""``
    for engine-level events) and ``data`` free-form JSON-safe details.
    """

    time: int
    kind: str
    node: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"t": self.time, "kind": self.kind, "node": self.node}
        if self.data:
            record["data"] = self.data
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        record = json.loads(line)
        return cls(
            time=record["t"],
            kind=record["kind"],
            node=record.get("node", ""),
            data=record.get("data", {}),
        )


#: Default ring capacity: holds a full single-flow recovery run (tens of
#: thousands of per-packet delivery events plus all control-plane events).
DEFAULT_CAPACITY = 1 << 17


class TraceRecorder:
    """A bounded, append-only sink of :class:`TraceEvent` records."""

    __slots__ = ("enabled", "capacity", "evicted", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        #: number of events evicted by the ring bound (trace truncated)
        self.evicted = 0
        self._events: deque = deque(maxlen=capacity or None)

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, time: int, kind: str, node: str = "", **data: object) -> None:
        """Record one event; a no-op while the recorder is disabled."""
        if not self.enabled:
            return
        if self.capacity and len(self._events) == self.capacity:
            self.evicted += 1
        self._events.append(TraceEvent(time, kind, node, data))

    def events(
        self, kind: Optional[str] = None, node: Optional[str] = None
    ) -> List[TraceEvent]:
        """Recorded events in emission order, optionally filtered."""
        return [
            event
            for event in self._events
            if (kind is None or event.kind == kind)
            and (node is None or event.node == node)
        ]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.evicted = 0

    # ------------------------------------------------------------ JSONL I/O

    def write_jsonl(self, path: str | Path) -> int:
        """Write every recorded event as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(event.to_json())
                handle.write("\n")
        return len(self._events)


#: A permanently-disabled recorder for code that wants an always-valid sink.
NULL_TRACE = TraceRecorder(capacity=0, enabled=False)


def read_jsonl(path: str | Path) -> List[TraceEvent]:
    """Load a trace previously written by :meth:`TraceRecorder.write_jsonl`."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json(line))
    return events


def replay(events: Iterable[TraceEvent], capacity: Optional[int] = None) -> TraceRecorder:
    """A recorder pre-filled with ``events`` (handy for analyzer tests)."""
    recorder = TraceRecorder(
        capacity=capacity if capacity is not None else DEFAULT_CAPACITY
    )
    for event in events:
        recorder.emit(event.time, event.kind, event.node, **event.data)
    return recorder
