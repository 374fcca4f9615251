"""Discrete-event simulation core.

A :class:`Simulator` owns a priority queue of events ordered by
``(time, priority, sequence)``.  Cancellation is O(1) (events are flagged and
skipped when popped).  All model code receives the simulator instance and
schedules callbacks; there are no threads and no wall-clock dependence, so a
given (model, seed) pair always produces the identical event trace.

Design notes
------------
* Time is integer nanoseconds (:mod:`repro.sim.units`).
* ``priority`` breaks ties between events scheduled for the same instant;
  lower runs first.  Model code rarely needs it, but the data plane uses it
  so that, e.g., a link-down event at time *t* takes effect before packet
  deliveries scheduled for the same *t*.
* The ``sequence`` counter makes ordering total and deterministic.
* :meth:`Simulator.run` is one per-event loop for every call shape
  (drain, ``until``, ``max_events``, observability on or off): each
  iteration pops one entry, so events run in exactly the heap's
  ``(time, priority, sequence)`` order, and :meth:`Simulator.step`
  driven one event at a time produces the identical trace.
* Heap entries are plain 5-slot lists ``[time, priority, sequence,
  callback, args]`` — comparison is C-level list comparison that never
  reaches the callback slot (``sequence`` is unique), which is what makes
  ``heappush``/``heappop`` cheap; the ``order=True`` dataclass this
  replaced spent most of every sift in generated ``__lt__`` calls.  The
  callback slot doubles as the lifecycle flag: a callable is live,
  ``None`` is cancelled, the ``_DONE`` sentinel marks an executed event.
* Cancelled events are tracked and the heap is **lazily compacted** when
  more than half of it is dead weight, so long runs with heavy
  :class:`Timer` restart churn keep the queue proportional to the number of
  *live* events.
* Every simulator carries an :class:`~repro.obs.Observability` facade
  (``sim.obs``) — disabled by default, in which case the loop pays one
  boolean check per event and allocates nothing.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

from .units import Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability

#: Priority for control events (failures, timers) — runs before deliveries.
PRIORITY_CONTROL = 0
#: Default priority for ordinary model events.
PRIORITY_NORMAL = 10

#: Queues smaller than this are never compacted (rebuild cost dwarfs gain).
_COMPACT_MIN_QUEUE = 64

#: heap-entry slot indices (see module docstring)
_TIME, _PRIORITY, _SEQ, _CALLBACK, _ARGS = range(5)

#: callback-slot sentinel for an event that already executed (a cancelled
#: event stores ``None`` there instead)
_DONE: Any = object()

#: module-level aliases: every schedule/pop site pays a plain global load
#: instead of a ``heapq.`` attribute lookup
_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


#: one scheduled event: ``[time, priority, sequence, callback, args]``
_Entry = list


class EventHandle:
    """Opaque handle for a scheduled event; supports cancellation."""

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: _Entry, sim: "Simulator") -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> Time:
        """The simulated time at which the event fires."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran or was cancelled."""
        entry = self._entry
        callback = entry[_CALLBACK]
        if callback is None or callback is _DONE:
            return
        entry[_CALLBACK] = None
        self._sim._note_cancelled()


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(microseconds(10), my_callback, arg1, arg2)
        sim.run(until=seconds(1))
    """

    def __init__(self, obs: Optional["Observability"] = None) -> None:
        if obs is None:
            # Local import: repro.obs transitively imports repro.sim.units,
            # so a module-level import here would be circular.
            from ..obs import Observability

            obs = Observability(enabled=False)
        #: the simulator's observability facade (trace recorder + metrics)
        self.obs = obs
        self._queue: list[_Entry] = []
        self._now: Time = 0
        self._sequence: int = 0
        self._running = False
        self._events_processed = 0
        self._cancelled_pending = 0

    @property
    def now(self) -> Time:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of *live* events still scheduled (cancelled excluded)."""
        return len(self._queue) - self._cancelled_pending

    def counters(self) -> dict:
        """A cheap, JSON-safe snapshot of the engine's lifetime counters.

        Deterministic (pure simulation state, no wall clocks); consumed
        by the span builder's root-span attrs and the flight recorder.
        """
        return {
            "now_ns": self._now,
            "events_processed": self._events_processed,
            "pending_events": self.pending_events,
        }

    def _note_cancelled(self) -> None:
        """Bookkeeping for a cancellation; compacts the heap when more than
        half of it is cancelled dead weight (lazy, amortised O(1)).

        Compaction mutates the queue **in place** (slice assignment, not
        rebinding): ``run()`` hoists the queue into a local, so a
        cancellation from inside a callback must never swap the list
        object out from under the running loop.
        """
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
        delay: Time,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        Deliberately does **not** route through :meth:`schedule_at` —
        this is the hottest scheduling call and the extra frame shows up
        in every profile.  Subclasses that audit scheduling (e.g. the
        checker's ``CheckedSimulator``) must override all three of
        ``schedule``, ``schedule_at`` and :meth:`call_at`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        entry = [self._now + delay, priority, self._sequence, callback, args]
        self._sequence += 1
        _heappush(self._queue, entry)
        return EventHandle(entry, self)

    def schedule_at(
        self,
        time: Time,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        entry = [time, priority, self._sequence, callback, args]
        self._sequence += 1
        _heappush(self._queue, entry)
        return EventHandle(entry, self)

    def call_at(
        self, time: Time, callback: Callable[..., None], *args: Any
    ) -> None:
        """:meth:`schedule_at` at ``PRIORITY_NORMAL`` for callers that
        never cancel: no :class:`EventHandle`, no keyword parsing.

        Same heap entry, same shared ``sequence`` counter, same error for
        a past ``time`` — an event posted here is indistinguishable from
        one posted through :meth:`schedule_at`, except that nothing can
        cancel it.  Like the other two it is overridden by the checker's
        ``CheckedSimulator``.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        _heappush(
            self._queue, [time, PRIORITY_NORMAL, self._sequence, callback, args]
        )
        self._sequence += 1

    def run(self, until: Optional[Time] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Events scheduled exactly at ``until`` do **not** run; the clock is
        left at ``until`` (or at the last event time if the queue drained).

        One event per iteration, in heap order: pop the head, skip it if
        cancelled, stop (pushing it back) once ``until`` is reached, run
        it, count it.  ``heappop`` and the queue are hoisted into locals,
        entries are plain lists (no attribute lookups), and with
        observability disabled nothing is allocated per event.
        ``events_processed`` is published once on exit (no model code
        reads it mid-run).
        """
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
        pop = _heappop
        done = _DONE
        try:
            while queue:
                entry = pop(queue)
                callback = entry[3]
                if callback is None:
                    self._cancelled_pending -= 1
                    if enabled:
                        cancelled_ctr.inc()
                    continue
                if until is not None and entry[0] >= until:
                    _heappush(queue, entry)
                    break
                self._now = entry[0]
                entry[3] = done
                callback(*entry[4])
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

    def run_until(self, deadline: Time, max_events: Optional[int] = None) -> None:
        """Run up to an absolute ``deadline``, validating it first.

        Unlike ``run(until=...)``, a non-positive or already-passed
        deadline raises :class:`SimulationError` instead of silently
        rewinding the clock — a campaign trial handed a bad deadline
        (e.g. a warmup/duration arithmetic bug producing <= 0) fails
        fast with a clear message rather than wedging its worker.
        """
        if deadline <= 0:
            raise SimulationError(
                f"run_until needs a positive deadline, got {deadline}"
            )
        if deadline < self._now:
            raise SimulationError(
                f"run_until deadline {deadline} is in the past (now {self._now})"
            )
        self.run(until=deadline, max_events=max_events)

    def step(self) -> bool:
        """Execute exactly one pending event; returns False if queue empty.

        Cancelled entries encountered on the way are drained with the same
        ``_cancelled_pending`` bookkeeping as :meth:`run`, so mixing
        ``step()`` and ``run()`` keeps :attr:`pending_events` exact.
        """
        queue = self._queue
        while queue:
            entry = _heappop(queue)
            callback = entry[3]
            if callback is None:
                self._cancelled_pending -= 1
                continue
            self._now = entry[0]
            entry[3] = _DONE
            callback(*entry[4])
            self._events_processed += 1
            return True
        return False


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Encapsulates the schedule/cancel/reschedule pattern used throughout the
    routing and transport code (retransmission timers, SPF hold timers...).
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        """True while the timer is scheduled and has not fired."""
        return self._handle is not None and not self._handle.cancelled

    @property
    def expiry(self) -> Optional[Time]:
        """Absolute firing time, or None when not armed."""
        if self.armed:
            assert self._handle is not None
            return self._handle.time
        return None

    def start(self, delay: Time) -> None:
        """(Re)arm the timer to fire ``delay`` ns from now."""
        self.cancel()
        self._handle = self._sim.schedule(delay, self._fire, priority=PRIORITY_CONTROL)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()
