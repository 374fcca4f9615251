"""Discrete-event simulation core.

A :class:`Simulator` owns a **calendar queue**: events are grouped by the
instant they share, and the instants are ordered.  Events run in
``(time, priority, posting order)`` order.  Cancellation is O(1) (events
are flagged and skipped when reached).  All model code receives the
simulator instance and schedules callbacks; there are no threads and no
wall-clock dependence, so a given (model, seed) pair always produces the
identical event trace.

Design notes
------------
* Time is integer nanoseconds (:mod:`repro.sim.units`).
* ``priority`` breaks ties between events scheduled for the same instant;
  lower runs first.  Model code rarely needs it, but the data plane uses it
  so that, e.g., a link-down event at time *t* takes effect before packet
  deliveries scheduled for the same *t*.  Priorities live in
  ``[0, 128)``; :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`
  reject anything else.
* An event is a plain 3-slot list ``[time, callback, args]``.  The
  callback slot doubles as the lifecycle flag: a callable is live,
  ``None`` is cancelled, the ``_DONE`` sentinel marks an executed event.
* Events sharing a ``(time, priority)`` share one **bucket**: a FIFO list
  of entries in a dict keyed by the int ``time << 7 | priority``.  The
  heap holds one key per bucket, so int order is ``(time, priority)``
  order.  Posting to a pending key is a dict hit and a list append, with
  no heap sift; FIFO order inside a bucket is the posting order, which
  makes the ordering total and deterministic.  The LSA flood's fixed
  per-hop delays land many of a trial's events on keys already pending.
  A key with one pending event maps to that event's entry itself (its
  first slot is the int time, a bucket's is an entry list), so an
  unshared event allocates no bucket; the second post to the key makes
  the bucket.
* :meth:`Simulator.run` is the one loop (:meth:`Simulator.step` is
  ``run(max_events=1)``).  It runs a lone head event in place, and
  detaches a head bucket and runs its events in order.  After each event it checks whether a smaller key has
  appeared (a delay-0 post at a lower priority); if so — and when
  ``until``, ``max_events`` or a raising callback stops it — the rest of
  the bucket goes back **in front of** any bucket posted since under the
  same key.
* Queued events, cancelled ones included, are one per pending key
  (``len`` of the heap) plus ``_extra``, the events queued behind the
  first of their bucket, plus the rest of the bucket being run
  (``_detached``).  That sum is what :attr:`Simulator.pending_events`,
  the ``sim.queue_depth`` gauge and the compaction trigger read, so an
  event posted to a new key costs no count update at all.
* Cancelled events are tracked and the queue is **lazily compacted**
  when more than half of it is dead weight, so long runs with heavy
  :class:`Timer` restart churn keep the queue proportional to the number
  of *live* events.
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

#: a bucket key is ``time << _PRIORITY_BITS | priority``
_PRIORITY_BITS = 7
#: priorities live in ``[0, _PRIORITY_LIMIT)``
_PRIORITY_LIMIT = 1 << _PRIORITY_BITS

#: Queues smaller than this are never compacted (rebuild cost dwarfs gain).
_COMPACT_MIN_QUEUE = 64

#: callback-slot sentinel for an event that already executed (a cancelled
#: event stores ``None`` there instead)
_DONE: Any = object()

#: module-level aliases: every schedule/pop site pays a plain global load
#: instead of a ``heapq.`` attribute lookup
_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


#: one scheduled event: ``[time, callback, args]``
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
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._entry[1] is None

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran or was cancelled."""
        entry = self._entry
        callback = entry[1]
        if callback is None or callback is _DONE:
            return
        entry[1] = None
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
        #: heap of bucket keys, one per pending ``(time, priority)``
        self._keys: list[int] = []
        #: bucket key -> the lone entry, or a FIFO list of entries
        self._buckets: dict[int, list[Any]] = {}
        #: entries in ``_buckets`` behind the first of their bucket,
        #: cancelled ones included
        self._extra = 0
        #: the rest of the bucket ``run()`` is executing, reversed so the
        #: next entry is last
        self._detached: list[_Entry] = []
        self._now: Time = 0
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
        return self._queued() - self._cancelled_pending

    def _queued(self) -> int:
        """Events still queued, cancelled dead weight included."""
        return len(self._keys) + self._extra + len(self._detached)

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
        """Bookkeeping for a cancellation; compacts the queue when more
        than half of it is cancelled dead weight (lazy, amortised O(1)).

        Compaction mutates the key heap, the bucket dict and the detached
        bucket **in place**: ``run()`` holds all three in locals, so a
        cancellation from inside a callback must never swap one out from
        under the running loop.
        """
        self._cancelled_pending += 1
        queued = self._queued()
        if queued >= _COMPACT_MIN_QUEUE and self._cancelled_pending * 2 > queued:
            buckets = self._buckets
            extra = 0
            for key, pending in list(buckets.items()):
                if pending[0].__class__ is list:
                    live = [e for e in pending if e[1] is not None]
                    if live:
                        buckets[key] = live
                        extra += len(live) - 1
                        continue
                elif pending[1] is not None:
                    continue
                del buckets[key]
            keys = self._keys
            keys[:] = buckets
            heapq.heapify(keys)
            self._extra = extra
            detached = self._detached
            if detached:
                detached[:] = [e for e in detached if e[1] is not None]
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
        if priority >> _PRIORITY_BITS:  # negative or >= _PRIORITY_LIMIT
            raise SimulationError(
                f"priority {priority} is outside [0, {_PRIORITY_LIMIT})"
            )
        time = self._now + delay
        entry = [time, callback, args]
        key = time << _PRIORITY_BITS | priority
        buckets = self._buckets
        queued = buckets.get(key)
        if queued is None:
            buckets[key] = entry
            _heappush(self._keys, key)
        elif queued[0].__class__ is list:
            queued.append(entry)
            self._extra += 1
        else:
            buckets[key] = [queued, entry]
            self._extra += 1
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
        if priority >> _PRIORITY_BITS:  # negative or >= _PRIORITY_LIMIT
            raise SimulationError(
                f"priority {priority} is outside [0, {_PRIORITY_LIMIT})"
            )
        entry = [time, callback, args]
        key = time << _PRIORITY_BITS | priority
        buckets = self._buckets
        queued = buckets.get(key)
        if queued is None:
            buckets[key] = entry
            _heappush(self._keys, key)
        elif queued[0].__class__ is list:
            queued.append(entry)
            self._extra += 1
        else:
            buckets[key] = [queued, entry]
            self._extra += 1
        return EventHandle(entry, self)

    def call_at(
        self, time: Time, callback: Callable[..., None], *args: Any
    ) -> None:
        """:meth:`schedule_at` at ``PRIORITY_NORMAL`` for callers that
        never cancel: no :class:`EventHandle`, no keyword parsing.

        Same entry, same bucket, same error for a past ``time`` — an
        event posted here is indistinguishable from one posted through
        :meth:`schedule_at`, except that nothing can cancel it.  Like the
        other two it is overridden by the checker's ``CheckedSimulator``.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        key = time << _PRIORITY_BITS | PRIORITY_NORMAL
        entry = [time, callback, args]
        buckets = self._buckets
        queued = buckets.get(key)
        if queued is None:
            buckets[key] = entry
            _heappush(self._keys, key)
        elif queued[0].__class__ is list:
            queued.append(entry)
            self._extra += 1
        else:
            buckets[key] = [queued, entry]
            self._extra += 1

    def _put_back(self, key: int) -> None:
        """Return the rest of the detached bucket to the queue, in front
        of whatever was posted under the same ``key`` since it was taken."""
        rest = self._detached
        if not rest:
            return
        self._detached = []
        rest.reverse()
        queued = self._buckets.get(key)
        if queued is None:
            self._buckets[key] = rest
            _heappush(self._keys, key)
            self._extra += len(rest) - 1
        elif queued[0].__class__ is list:
            queued[:0] = rest
            self._extra += len(rest)
        else:
            rest.append(queued)
            self._buckets[key] = rest
            self._extra += len(rest) - 1

    def run(self, until: Optional[Time] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Events scheduled exactly at ``until`` do **not** run; the clock is
        left at ``until`` (or at the last event time if the queue drained).

        Pop the smallest key.  A lone event runs in place: skip it if
        cancelled, put it back and stop if ``until`` is reached, run it,
        count it, stop at ``max_events``.  A bucket is detached; at or
        past ``until`` its leading cancelled entries are skipped and the
        loop stops at the first live one, otherwise each entry goes
        through the same steps as a lone event, and the rest of the
        bucket is handed back if a callback posted a smaller key.  With
        observability disabled nothing is allocated per event.
        ``events_processed`` is published once on exit (no model code
        reads it mid-run).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        executed = 0
        # max_events <= 0 still runs one event, as it always has
        limit = -1 if max_events is None else max(max_events, 1)
        obs = self.obs
        enabled = obs.enabled
        if enabled:
            executed_ctr = obs.metrics.counter("sim.events_executed")
            cancelled_ctr = obs.metrics.counter("sim.cancelled_skipped")
            depth_gauge = obs.metrics.gauge("sim.queue_depth")
        keys = self._keys
        buckets = self._buckets
        pop = _heappop
        done = _DONE
        key = 0
        try:
            while keys:
                key = pop(keys)
                queued = buckets.pop(key)
                time = key >> _PRIORITY_BITS
                if queued[0].__class__ is not list:
                    # a lone event: nothing detached, nothing to put back
                    callback = queued[1]
                    if callback is None:
                        self._cancelled_pending -= 1
                        if enabled:
                            cancelled_ctr.inc()
                        continue
                    if until is not None and time >= until:
                        buckets[key] = queued
                        _heappush(keys, key)
                        break
                    self._now = time
                    queued[1] = done
                    callback(*queued[2])
                    executed += 1
                    if enabled:
                        executed_ctr.inc()
                        depth_gauge.set(len(keys) + self._extra)
                    if executed == limit:
                        return
                    continue
                bucket = queued
                self._extra -= len(bucket) - 1
                bucket.reverse()
                self._detached = bucket
                if until is not None and time >= until:
                    # drain the cancelled entries ahead of the first live
                    # one, then stop: the event loop always has
                    while bucket and bucket[-1][1] is None:
                        bucket.pop()
                        self._cancelled_pending -= 1
                        if enabled:
                            cancelled_ctr.inc()
                    if bucket:
                        break
                    continue
                while bucket:
                    entry = bucket.pop()
                    callback = entry[1]
                    if callback is None:
                        self._cancelled_pending -= 1
                        if enabled:
                            cancelled_ctr.inc()
                        continue
                    self._now = time
                    entry[1] = done
                    callback(*entry[2])
                    executed += 1
                    if enabled:
                        executed_ctr.inc()
                        depth_gauge.set(len(keys) + self._extra + len(bucket))
                    if executed == limit:
                        return
                    if bucket and keys and keys[0] < key:
                        # a callback posted an earlier key: run it first
                        self._put_back(key)
                        break
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._put_back(key)
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
        """Execute exactly one pending event; returns False if none was
        live.  This is ``run(max_events=1)``, so it skips cancelled
        entries on the way and, like :meth:`run`, refuses to be called
        from inside a running callback."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before


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
