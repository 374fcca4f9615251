"""The single-heap event engine: the calendar queue's oracle.

:class:`repro.sim.engine.Simulator` keeps one heap key per ``(time,
priority)`` and a FIFO bucket of events under it; this module is the
engine it replaced, one heap entry per event, ordered by ``(time,
priority, sequence)``.  The tests require the two to agree on every
observable: which events run, in what order, at what ``now``, with what
``events_processed``, ``pending_events`` and obs counters.

:data:`ENGINE_METHODS` names what a test patches onto ``Simulator`` to
run a whole trial on this engine (subclasses such as the checker's
``CheckedSimulator`` then audit it unchanged).  Nothing under ``src/``
imports it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.engine import PRIORITY_NORMAL, SimulationError

#: queues smaller than this are never compacted
_COMPACT_MIN_QUEUE = 64

#: heap-entry slot indices: ``[time, priority, sequence, callback, args]``
_TIME, _PRIORITY, _SEQ, _CALLBACK, _ARGS = range(5)

#: callback-slot sentinel for an event that already executed
_DONE: Any = object()


class HeapEventHandle:
    """Cancellation handle over a 5-slot heap entry."""

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "HeapSimulator") -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> int:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        entry = self._entry
        callback = entry[_CALLBACK]
        if callback is None or callback is _DONE:
            return
        entry[_CALLBACK] = None
        self._sim._note_cancelled()


class HeapSimulator:
    """One heap entry per event; the ``sequence`` counter breaks ties.

    Methods never call ``super()``, so each can be patched onto
    ``repro.sim.engine.Simulator`` on its own (:data:`ENGINE_METHODS`).
    """

    def __init__(self, obs: Optional[Any] = None) -> None:
        if obs is None:
            from repro.obs import Observability

            obs = Observability(enabled=False)
        self.obs = obs
        self._queue: List[list] = []
        self._now = 0
        self._sequence = 0
        self._running = False
        self._events_processed = 0
        self._cancelled_pending = 0

    @property
    def now(self) -> int:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue) - self._cancelled_pending

    def counters(self) -> dict:
        return {
            "now_ns": self._now,
            "events_processed": self._events_processed,
            "pending_events": self.pending_events,
        }

    def _note_cancelled(self) -> None:
        """Compact the heap, in place, once over half of it is cancelled."""
        self._cancelled_pending += 1
        queue = self._queue
        if (
            len(queue) >= _COMPACT_MIN_QUEUE
            and self._cancelled_pending * 2 > len(queue)
        ):
            queue[:] = [e for e in queue if e[_CALLBACK] is not None]
            heapq.heapify(queue)
            self._cancelled_pending = 0

    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> HeapEventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        entry = [self._now + delay, priority, self._sequence, callback, args]
        self._sequence += 1
        heapq.heappush(self._queue, entry)
        return HeapEventHandle(entry, self)

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> HeapEventHandle:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        entry = [time, priority, self._sequence, callback, args]
        self._sequence += 1
        heapq.heappush(self._queue, entry)
        return HeapEventHandle(entry, self)

    def call_at(
        self, time: int, callback: Callable[..., None], *args: Any
    ) -> None:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        heapq.heappush(
            self._queue, [time, PRIORITY_NORMAL, self._sequence, callback, args]
        )
        self._sequence += 1

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        """Pop the head; skip it if cancelled; push it back and stop once
        ``until`` is reached; run it; count it; stop at ``max_events``."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        executed = 0
        obs = self.obs
        enabled = obs.enabled
        if enabled:
            executed_ctr = obs.metrics.counter("sim.events_executed")
            cancelled_ctr = obs.metrics.counter("sim.cancelled_skipped")
            depth_gauge = obs.metrics.gauge("sim.queue_depth")
        queue = self._queue
        try:
            while queue:
                entry = heapq.heappop(queue)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._cancelled_pending -= 1
                    if enabled:
                        cancelled_ctr.inc()
                    continue
                if until is not None and entry[_TIME] >= until:
                    heapq.heappush(queue, entry)
                    break
                self._now = entry[_TIME]
                entry[_CALLBACK] = _DONE
                callback(*entry[_ARGS])
                executed += 1
                if enabled:
                    executed_ctr.inc()
                    depth_gauge.set(len(queue))
                if max_events is not None and executed >= max_events:
                    return
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._events_processed += executed
            self._running = False

    def step(self) -> bool:
        """Pop and run one live event (cancelled heads drained first)."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            callback = entry[_CALLBACK]
            if callback is None:
                self._cancelled_pending -= 1
                continue
            self._now = entry[_TIME]
            entry[_CALLBACK] = _DONE
            callback(*entry[_ARGS])
            self._events_processed += 1
            return True
        return False


#: the ``Simulator`` attributes that make up the engine; ``run_until``
#: and ``Timer`` go through them
ENGINE_METHODS = (
    "__init__",
    "pending_events",
    "_note_cancelled",
    "schedule",
    "schedule_at",
    "call_at",
    "run",
    "step",
)
