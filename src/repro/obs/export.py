"""Span-tree exporters: JSONL and Chrome trace-event JSON.

Two offline formats for the trees built by :mod:`repro.obs.spans`:

* **JSONL** — one span dict per line, append-friendly and greppable;
  round-trips through :func:`write_spans_jsonl` / :func:`read_spans_jsonl`.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` object
  format understood by Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.  Each span becomes a complete event (``"ph":
  "X"``) with microsecond ``ts``/``dur``; zero-duration spans (per-node
  SPF runs, per-prefix FIB deltas) become instant events (``"ph": "i"``)
  so they stay visible at any zoom.  Thread lanes are assigned
  deterministically: lane 0 holds the recovery critical path (root +
  phases), and each emitting node gets its own lane in sorted-name order
  — never in ``id()`` order (the ``repro lint`` rule ``span-id``
  enforces this), so the same tree always exports byte-identically.

:func:`validate_chrome_trace` checks an export against the trace-event
schema the viewers rely on; the ``repro trace --validate`` CLI mode and
the CI golden check are built on it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional

from .spans import Span, SpanError, SpanTree

#: ``pid`` stamped on every exported event (one process: the simulator)
TRACE_PID = 1

#: lane 0: the episode's critical path (root span + phase spans)
CRITICAL_PATH_LANE = 0
CRITICAL_PATH_LANE_NAME = "critical-path"


class ExportError(ValueError):
    """Raised when an export cannot be produced or parsed."""


# ----------------------------------------------------------------- JSONL

def write_spans_jsonl(tree: SpanTree, path: object) -> int:
    """Write one span dict per line; returns the number of spans."""
    with open(path, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
        for span in tree.spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True))
            handle.write("\n")
    return len(tree.spans)


def read_spans_jsonl(path: object) -> SpanTree:
    """Load a tree previously written by :func:`write_spans_jsonl`."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:  # type: ignore[arg-type]
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    try:
        return SpanTree(spans)
    except SpanError as exc:
        raise ExportError(f"invalid span JSONL {path}: {exc}") from exc


# ---------------------------------------------------- Chrome trace events

def _lane_assignment(tree: SpanTree) -> Dict[str, int]:
    """``node name -> tid``: sorted-name order, lanes from 1 upward."""
    nodes = sorted({span.node for span in tree.spans if span.node})
    return {node: lane for lane, node in enumerate(nodes, start=1)}


def chrome_trace(tree: SpanTree) -> Dict[str, object]:
    """The Chrome trace-event object for one span tree.

    Deterministic: event order follows span document order, lanes follow
    sorted node names, and timestamps are exact integer-nanosecond spans
    scaled to fractional microseconds.
    """
    lanes = _lane_assignment(tree)
    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": CRITICAL_PATH_LANE,
            "name": "thread_name",
            "args": {"name": CRITICAL_PATH_LANE_NAME},
        }
    ]
    for node in sorted(lanes):
        events.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": lanes[node],
                "name": "thread_name",
                "args": {"name": node},
            }
        )
    for span in tree.spans:
        tid = lanes.get(span.node, CRITICAL_PATH_LANE)
        args: Dict[str, object] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.node:
            args["node"] = span.node
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        event: Dict[str, object] = {
            "name": span.name,
            "cat": "recovery" if span.parent_id is None else "span",
            "pid": TRACE_PID,
            "tid": tid,
            "ts": span.start / 1000,
            "args": args,
        }
        if span.duration > 0:
            event["ph"] = "X"
            event["dur"] = span.duration / 1000
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro trace", "spans": len(tree.spans)},
    }


def chrome_trace_json(tree: SpanTree) -> str:
    """The export serialised with sorted keys (byte-stable)."""
    return json.dumps(chrome_trace(tree), indent=2, sort_keys=True) + "\n"


def write_chrome_trace(tree: SpanTree, path: object) -> int:
    """Write the Chrome trace-event JSON; returns the event count."""
    text = chrome_trace_json(tree)
    with open(path, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
        handle.write(text)
    return len(chrome_trace(tree)["traceEvents"])  # type: ignore[arg-type]


#: phases (``ph``) this exporter emits; validation rejects anything else
_ALLOWED_PHASES = ("M", "X", "i", "I", "B", "E")


def validate_chrome_trace(data: object) -> List[str]:
    """Schema-check a Chrome trace-event export; returns problems found.

    Accepts the object format (``{"traceEvents": [...]}``) or the bare
    array format.  An empty list means the export is valid.
    """
    problems: List[str] = []
    if isinstance(data, Mapping):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            return ["object form lacks a 'traceEvents' array"]
    elif isinstance(data, list):
        events = data
    else:
        return ["trace must be a JSON object or array"]

    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _ALLOWED_PHASES:
            problems.append(f"{where}: bad or missing 'ph' {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing event 'name'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: '{key}' must be an integer")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: complete event needs non-negative 'dur'"
                )
    return problems


def validate_chrome_trace_file(path: object) -> List[str]:
    """:func:`validate_chrome_trace` on a file; raises
    :class:`ExportError` when the file cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:  # type: ignore[arg-type]
            data = json.load(handle)
    except OSError as exc:
        raise ExportError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ExportError(f"{path} is not JSON: {exc}") from exc
    return validate_chrome_trace(data)


def hierarchy_names(tree: SpanTree) -> Dict[str, Optional[str]]:
    """``{span name: parent span name}`` — convenience for asserting the
    detect → ... → first_packet hierarchy in tests and docs."""
    out: Dict[str, Optional[str]] = {}
    for span in tree.spans:
        parent = None if span.parent_id is None else tree.get(span.parent_id)
        out.setdefault(span.name, parent.name if parent else None)
    return out
