"""Host-side span tracing of ``repro`` from outside the package.

The tracer wraps a fixed list of *public* callables (``layers.TARGETS``)
and rebinds them where callers look them up: a method on its class, a
function in every ``repro.*`` module whose attribute *is* the original,
so ``from x import f`` call sites are caught too.  Nothing under
``src/`` changes, and model code stays free of wall clocks.

Every wrapped call is timed against a call stack, so a callable's self
time is its duration minus the time its wrapped callees took.  Calls of
"hot" targets (per packet, per control message) are only aggregated;
all others are also kept as spans — id, parent, name, start, end, trial
— in memory, and written out when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

_PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024


def rss_kib() -> int:
    """Resident set size right now (``ru_maxrss`` only knows the peak)."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE_KIB


class Target(NamedTuple):
    """One public callable to wrap."""

    module: str
    #: ``function`` or ``Class.method``; also the span name
    name: str
    #: called per packet / per message: aggregate, do not keep spans
    hot: bool = False
    #: sample RSS before and after (set-up stages only: it reads /proc)
    rss: bool = False
    #: keep ``args[0]`` (the instance) until the trial ends, so its
    #: deterministic counters can be read from outside
    capture: bool = False
    #: work units of one call, from its arguments (e.g. entries loaded)
    units: Optional[Callable[..., int]] = None


class Stat:
    """Aggregate of every call of one target."""

    __slots__ = ("calls", "total_s", "self_s", "units", "rss_kib")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.units = 0
        self.rss_kib = 0


#: (id, parent id or -1, name, start, end, trial) — times are
#: ``perf_counter`` seconds; ids are list positions, in start order
Span = Tuple[int, int, str, float, float, str]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stats: Dict[str, Stat] = {}
        self.captured: Dict[str, List[Any]] = {}
        self.trial = ""
        #: open calls, innermost last: [id of the nearest kept span, time
        #: spent in wrapped callees]
        self._stack: List[List[Any]] = []

    # ------------------------------------------------------------ install

    def install(self, targets: List[Target]) -> None:
        """Wrap every target; fails loudly when one has moved."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.name.rpartition(".")
            self.stats[target.name] = Stat()
            if target.capture:
                self.captured[target.name] = []
            if owner_name:
                owner = getattr(module, owner_name)
                if attr not in vars(owner):
                    raise LookupError(f"{target.module}.{target.name} is gone")
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(target, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(target, original)
            for name, mod in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        name = target.name
        stat = self.stats[name]
        captured = self.captured.get(name)
        keep = not target.hot
        sample_rss = target.rss
        units = target.units
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent is not None else -1
            span_id = parent_id
            if keep:
                span_id = len(spans)
                spans.append(None)  # reserve the slot: ids stay in start order
            frame = [span_id, 0.0]
            stack.append(frame)
            if captured is not None:
                captured.append(args[0])
            if units is not None:
                stat.units += units(*args, **kwargs)
            rss_before = rss_kib() if sample_rss else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spent = end - start
                if parent is not None:
                    parent[1] += spent
                stat.calls += 1
                stat.total_s += spent
                stat.self_s += spent - frame[1]
                if sample_rss:
                    stat.rss_kib += max(0, rss_kib() - rss_before)
                if keep:
                    spans[span_id] = (span_id, parent_id, name, start, end, self.trial)

        return traced

    # ------------------------------------------------------------- output

    def closed_spans(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def problems(self) -> List[str]:
        """Violations of the span-tree invariants (empty when sound)."""
        found = [f"span {i} never closed" for i, s in enumerate(self.spans) if s is None]
        for span_id, parent_id, name, start, end, _trial in self.closed_spans():
            if end < start:
                found.append(f"span {span_id} {name} ends before it starts")
            if parent_id == -1:
                continue
            parent = self.spans[parent_id] if 0 <= parent_id < span_id else None
            if parent is None:
                found.append(f"span {span_id} {name} has no parent {parent_id}")
            elif not (parent[3] <= start and end <= parent[4]):
                found.append(f"span {span_id} {name} not enclosed by {parent[2]}")
        for name, stat in sorted(self.stats.items()):
            if stat.self_s < 0 or stat.self_s > stat.total_s:
                found.append(f"{name} self time {stat.self_s} outside [0, total]")
        return found

    def write(self, directory: str, workload: str) -> None:
        """``<workload>.spans.json`` and a Chrome trace-event file that
        ``chrome://tracing`` / Perfetto load (one lane per trial)."""
        spans = self.closed_spans()
        with open(os.path.join(directory, f"{workload}.spans.json"), "w") as out:
            json.dump(
                {
                    "workload": workload,
                    "fields": ["id", "parent", "name", "start_s", "end_s", "trial"],
                    "spans": spans,
                    "aggregates": {
                        name: {
                            "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                            "units": s.units, "rss_kib": s.rss_kib,
                        }
                        for name, s in sorted(self.stats.items())
                    },
                },
                out,
            )
        origin = spans[0][3] if spans else 0.0
        lanes: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for span_id, parent_id, name, start, end, trial in spans:
            lane = lanes.setdefault(trial, len(lanes) + 1)
            events.append({
                "name": name, "cat": workload, "ph": "X", "pid": 1, "tid": lane,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent_id, "trial": trial},
            })
        for trial, lane in lanes.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                "args": {"name": trial},
            })
        with open(os.path.join(directory, f"{workload}.chrome.json"), "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
