"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import (
    PRIORITY_CONTROL,
    PRIORITY_NORMAL,
    SimulationError,
    Simulator,
    Timer,
)
from repro.obs import Observability
from repro.sim.units import SECOND, milliseconds
from tests.engine_reference import ENGINE_METHODS, HeapSimulator


def test_starts_at_time_zero():
    assert Simulator().now == 0


def test_schedule_and_run_executes_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(10, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties():
    sim = Simulator()
    order = []
    sim.schedule(10, order.append, "normal", priority=PRIORITY_NORMAL)
    sim.schedule(10, order.append, "control", priority=PRIORITY_CONTROL)
    sim.run()
    assert order == ["control", "normal"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_call_at_runs_like_schedule_at_and_returns_no_handle():
    sim = Simulator()
    seen = []
    assert sim.call_at(100, lambda tag: seen.append((tag, sim.now)), "x") is None
    sim.run()
    assert seen == [("x", 100)]
    assert sim.events_processed == 1


def test_call_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)
    sim.call_at(10, lambda: None)  # "now" is not the past
    assert sim.pending_events == 1


def test_run_until_stops_before_boundary_event():
    sim = Simulator()
    seen = []
    sim.schedule(10, seen.append, "early")
    sim.schedule(100, seen.append, "late")
    sim.run(until=100)
    assert seen == ["early"]
    assert sim.now == 100
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_with_empty_queue():
    sim = Simulator()
    sim.run(until=500)
    assert sim.now == 500


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.schedule(10, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []
    assert handle.cancelled


def test_cancel_after_execution_is_noop():
    sim = Simulator()
    seen = []
    handle = sim.schedule(10, seen.append, "x")
    sim.run()
    handle.cancel()
    assert seen == ["x"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(5, seen.append, "second")

    sim.schedule(10, first)
    sim.run()
    assert seen == ["second"]
    assert sim.now == 15


def test_max_events_limit():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(i + 1, seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_step_executes_one_event():
    sim = Simulator()
    seen = []
    sim.schedule(1, seen.append, "a")
    sim.schedule(2, seen.append, "b")
    assert sim.step()
    assert seen == ["a"]
    assert sim.step()
    assert not sim.step()


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, reenter)
    sim.run()


def test_step_inside_run_rejected():
    """``step()`` is ``run(max_events=1)``: from inside a callback it is
    re-entrant and refused, instead of running the next event nested
    inside the current one."""
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.step()
        seen.append(("reenter", sim.now))

    sim.schedule(1, reenter)
    sim.schedule(2, seen.append, ("later", 2))
    sim.run()
    assert seen == [("reenter", 1), ("later", 2)]
    assert sim.events_processed == 2


@pytest.mark.parametrize("priority", [-1, 128, 1 << 20])
def test_priority_outside_key_range_rejected(priority):
    sim = Simulator()
    with pytest.raises(SimulationError, match="priority"):
        sim.schedule(1, lambda: None, priority=priority)
    with pytest.raises(SimulationError, match="priority"):
        sim.schedule_at(1, lambda: None, priority=priority)
    assert sim.pending_events == 0


def test_priority_range_bounds_accepted():
    sim = Simulator()
    order = []
    sim.schedule(1, order.append, "last", priority=127)
    sim.schedule_at(1, order.append, "first", priority=0)
    sim.run()
    assert order == ["first", "last"]


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_execution_order_is_sorted_by_time(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run()
    assert fired == sorted(delays)
    assert len(fired) == len(delays)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=30),
    st.data(),
)
def test_cancellation_removes_exactly_the_cancelled(delays, data):
    sim = Simulator()
    handles = {}
    fired = []
    for index, delay in enumerate(delays):
        handles[index] = sim.schedule(delay, lambda i=index: fired.append(i))
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(delays) - 1))
    )
    for index in to_cancel:
        handles[index].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


class TestPendingEvents:
    def test_counts_only_live_events(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        handles[0].cancel()
        handles[3].cancel()
        assert sim.pending_events == 3

    def test_cancel_after_execution_does_not_corrupt_count(self):
        sim = Simulator()
        handle = sim.schedule(1, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        handle.cancel()  # no-op: already executed
        handle.cancel()
        assert sim.pending_events == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1

    def test_draining_cancelled_events_reaches_zero(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(10)]
        for handle in handles[::2]:
            handle.cancel()
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 5


class TestHeapCompaction:
    def test_compaction_shrinks_the_queue(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(100)]
        for handle in handles[:60]:
            handle.cancel()
        # once more than half the queue was dead weight it was compacted
        assert sim._queued() < 100
        assert sim.pending_events == 40

    def test_small_queues_never_compact(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert sim._queued() == 10  # below _COMPACT_MIN_QUEUE: lazy skip
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0

    def test_execution_order_survives_compaction(self):
        sim = Simulator()
        fired = []
        handles = {}
        for i in range(120):
            handles[i] = sim.schedule(
                1000 - i, lambda i=i: fired.append(i)
            )
        for i in range(0, 120, 2):
            handles[i].cancel()  # 60 of 120 cancelled -> compaction kicks in
        sim.run()
        assert fired == sorted(
            (i for i in range(120) if i % 2), key=lambda i: 1000 - i
        )

    def test_mid_run_compaction_does_not_lose_events(self):
        """Compaction triggered from inside a callback must mutate the
        queue in place: ``run()`` holds the queue in a local, so swapping
        the list object out mid-run would silently drop every event
        scheduled after the swap."""
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1000 + i, lambda: None) for i in range(100)]

        def churn():
            # cancelling >half the (>=64 entry) queue triggers compaction
            for handle in handles[:80]:
                handle.cancel()
            sim.schedule(10, fired.append, "after-compaction")

        sim.schedule(1, churn)
        sim.run()
        assert "after-compaction" in fired
        assert sim.pending_events == 0
        assert sim._cancelled_pending == 0
        assert sim.events_processed == 22  # churn + late event + 20 alive

    def test_compaction_inside_a_running_bucket(self):
        """A cancellation burst from the head of a shared bucket compacts
        the rest of that bucket too: the survivors still run, in order,
        and the compacted dead weight is never skipped (it is gone)."""
        sim = Simulator(obs=Observability(enabled=True))
        order = []
        handles = []

        def burst():
            order.append("burst")
            for handle in handles[:60]:
                handle.cancel()

        sim.schedule(10, burst)
        handles.extend(sim.schedule(10, order.append, i) for i in range(70))
        assert sim._queued() == 71
        sim.run()
        assert order == ["burst", *range(60, 70)]
        assert sim.pending_events == 0 and sim._queued() == 0
        assert sim._cancelled_pending == 0
        # the 36th cancel compacts 70 queued entries to 34; the last 24
        # cancels leave a queue below _COMPACT_MIN_QUEUE, so they are skipped
        assert sim.obs.metrics.counter("sim.cancelled_skipped").value == 24

    def test_timer_churn_keeps_queue_bounded(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        for _ in range(10_000):
            timer.start(SECOND)  # each restart cancels the previous event
        assert sim._queued() < 200
        assert sim.pending_events == 1


class TestCancelledHeadUntil:
    """Interaction of cancelled events with the ``until`` boundary: the
    run loop pops the head before checking the boundary, so a cancelled
    entry sitting at or past ``until`` must be drained (or left) without
    ever moving the clock to its timestamp."""

    def test_cancelled_head_past_until_does_not_advance_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "early")
        handle = sim.schedule(50, seen.append, "cancelled")
        handle.cancel()
        sim.schedule(200, seen.append, "late")
        sim.run(until=100)
        assert seen == ["early"]
        assert sim.now == 100
        assert sim.pending_events == 1  # only "late" remains live

    def test_cancelled_head_before_until_is_drained(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, seen.append, "cancelled")
        handle.cancel()
        sim.schedule(20, seen.append, "live")
        sim.run(until=100)
        assert seen == ["live"]
        assert sim.now == 100
        assert sim.pending_events == 0

    def test_cancelled_head_exactly_at_until(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(100, seen.append, "cancelled-at-boundary")
        handle.cancel()
        sim.schedule(100, seen.append, "live-at-boundary")
        sim.run(until=100)
        # boundary events never run; the cancelled one must not trick the
        # loop into running (or skipping past) the live one
        assert seen == []
        assert sim.now == 100
        assert sim.pending_events == 1
        sim.run()
        assert seen == ["live-at-boundary"]

    def test_cancelled_bookkeeping_consistent_across_until_runs(self):
        sim = Simulator()
        handles = [sim.schedule(i * 10, lambda: None) for i in range(1, 9)]
        for handle in handles[::2]:
            handle.cancel()
        sim.run(until=45)  # drains events at 10..40 (two cancelled)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 4

    def test_until_with_obs_enabled_counts_cancelled_skips(self):
        from repro.obs import Observability

        sim = Simulator(obs=Observability(enabled=True))
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        sim.schedule(20, lambda: None)
        sim.schedule(200, lambda: None)
        sim.run(until=100)
        assert sim.obs.metrics.counter("sim.cancelled_skipped").value == 1
        assert sim.obs.metrics.counter("sim.events_executed").value == 1
        assert sim.now == 100


class TestStepCancelledBookkeeping:
    """``step()`` must keep ``_cancelled_pending`` exact so that mixing
    ``step()`` with ``run()``/compaction never corrupts
    :attr:`Simulator.pending_events`."""

    def test_step_drains_cancelled_entries(self):
        sim = Simulator()
        seen = []
        first = sim.schedule(1, seen.append, "a")
        second = sim.schedule(2, seen.append, "b")
        sim.schedule(3, seen.append, "c")
        first.cancel()
        second.cancel()
        assert sim.pending_events == 1
        assert sim.step()  # skips two cancelled entries, runs "c"
        assert seen == ["c"]
        assert sim.now == 3
        assert sim.pending_events == 0
        assert sim._cancelled_pending == 0

    def test_step_then_run_keeps_counts_exact(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(6)]
        handles[0].cancel()
        handles[2].cancel()
        assert sim.step()  # drains cancelled head, runs event at t=2
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 4

    def test_step_on_all_cancelled_queue_returns_false(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(4)]
        for handle in handles:
            handle.cancel()
        assert not sim.step()
        assert sim.pending_events == 0
        assert sim._cancelled_pending == 0
        assert sim.events_processed == 0

    def test_step_marks_event_done_for_handle_cancel(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1, seen.append, "x")
        assert sim.step()
        handle.cancel()  # no-op: already executed via step()
        assert seen == ["x"]
        assert sim.pending_events == 0


class TestRunUntil:
    """``run_until`` is the checked deadline API: a non-positive or stale
    deadline is a caller bug and must raise instead of silently running
    the queue dry (``run(until=0)`` degenerates to "run forever")."""

    def test_zero_deadline_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        with pytest.raises(SimulationError, match="positive deadline"):
            sim.run_until(0)

    def test_negative_deadline_raises(self):
        with pytest.raises(SimulationError, match="positive deadline"):
            Simulator().run_until(-5)

    def test_past_deadline_raises(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        assert sim.now == 100
        with pytest.raises(SimulationError, match="in the past"):
            sim.run_until(50)

    def test_bad_deadline_leaves_queue_untouched(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "x")
        with pytest.raises(SimulationError):
            sim.run_until(0)
        assert seen == []
        assert sim.pending_events == 1

    def test_valid_deadline_matches_run_semantics(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "early")
        sim.schedule(100, seen.append, "boundary")
        sim.run_until(100)  # boundary events do not run, like run(until=)
        assert seen == ["early"]
        assert sim.now == 100

    def test_deadline_equal_to_now_is_noop(self):
        sim = Simulator()
        sim.run(until=50)
        seen = []
        sim.schedule(10, seen.append, "later")
        sim.run_until(50)
        assert seen == []
        assert sim.now == 50

    def test_max_events_forwarded(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(i + 1, seen.append, i)
        sim.run_until(100, max_events=2)
        assert seen == [0, 1]


class TestEngineMetrics:
    def test_event_counters_when_enabled(self):
        from repro.obs import Observability

        obs = Observability(enabled=True)
        sim = Simulator(obs=obs)
        handle = sim.schedule(5, lambda: None)
        sim.schedule(1, handle.cancel)
        sim.schedule(10, lambda: None)
        sim.run()
        assert obs.metrics.counter("sim.events_executed").value == 2
        assert obs.metrics.counter("sim.cancelled_skipped").value == 1

    def test_disabled_obs_registers_nothing(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()
        assert len(sim.obs.metrics) == 0
        assert len(sim.obs.trace) == 0


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        seen = []
        timer = Timer(sim, lambda: seen.append(sim.now))
        timer.start(milliseconds(5))
        sim.run()
        assert seen == [milliseconds(5)]
        assert not timer.armed

    def test_restart_supersedes(self):
        sim = Simulator()
        seen = []
        timer = Timer(sim, lambda: seen.append(sim.now))
        timer.start(100)
        timer.start(200)  # re-arm before firing
        sim.run()
        assert seen == [200]

    def test_cancel(self):
        sim = Simulator()
        seen = []
        timer = Timer(sim, lambda: seen.append(1))
        timer.start(100)
        timer.cancel()
        sim.run()
        assert seen == []

    def test_expiry_visible_while_armed(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert timer.expiry is None
        timer.start(123)
        assert timer.armed
        assert timer.expiry == 123

    def test_can_rearm_from_callback(self):
        sim = Simulator()
        fires = []
        timer = Timer(sim, lambda: None)

        def on_fire():
            fires.append(sim.now)
            if len(fires) < 3:
                timer.start(10)

        timer._callback = on_fire
        timer.start(10)
        sim.run()
        assert fires == [10, 20, 30]


class TestSameTimestampBatching:
    """Many events sharing one timestamp (the shape failure storms
    produce): ordering, cancellation bookkeeping, ``max_events``,
    ``until`` and observability counters all treat them one event at a
    time, in ``(time, priority, posting order)`` order."""

    def test_delay_zero_cascade_stays_in_batch_order(self):
        """Events scheduled *at* the current instant from inside a
        callback run at that instant, in (priority, posting order) order
        among the events already waiting there."""
        sim = Simulator()
        order = []

        def head():
            order.append(("head", sim.now))
            sim.schedule(0, order.append, ("cascade-normal", sim.now))
            sim.schedule(
                0, order.append, ("cascade-control", sim.now),
                priority=PRIORITY_CONTROL,
            )

        sim.schedule(10, head)
        sim.schedule(10, order.append, ("sibling", 10))
        sim.schedule(20, order.append, ("later", 20))
        sim.run()
        # pure (time, priority, posting order) order: the control-priority
        # cascade overtakes the rest of the head's bucket (the sibling),
        # the normal cascade queues behind that rest
        assert order == [
            ("head", 10),
            ("cascade-control", 10),
            ("sibling", 10),
            ("cascade-normal", 10),
            ("later", 20),
        ]

    def test_cancelled_mid_batch_entries_are_skipped_exactly(self):
        sim = Simulator()
        order = []
        handles = [sim.schedule(10, order.append, tag) for tag in range(6)]
        handles[2].cancel()
        handles[3].cancel()
        sim.run()
        assert order == [0, 1, 4, 5]
        assert sim.pending_events == 0
        assert sim.events_processed == 4

    def test_head_cancelling_rest_of_its_batch(self):
        """An event cancelling later same-timestamp events must keep
        ``_cancelled_pending`` exact as the loop skips them."""
        sim = Simulator()
        order = []
        later = []

        def head():
            order.append("head")
            for handle in later:
                handle.cancel()

        sim.schedule(10, head)
        later.extend(sim.schedule(10, order.append, t) for t in range(3))
        sim.schedule(20, order.append, "next-ts")
        sim.run()
        assert order == ["head", "next-ts"]
        assert sim.pending_events == 0

    def test_raising_callback_leaves_the_rest_of_its_bucket_queued(self):
        sim = Simulator()
        order = []

        def boom():
            order.append("boom")
            sim.schedule(0, order.append, "posted-by-boom")
            raise RuntimeError("boom")

        sim.schedule(10, order.append, 0)
        sim.schedule(10, boom)
        sim.schedule(10, order.append, 1)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.pending_events == 2
        assert sim.events_processed == 1
        sim.run()
        # the rest of the bucket goes back ahead of the same-key post
        assert order == [0, "boom", 1, "posted-by-boom"]

    def test_max_events_stops_inside_a_batch(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(10, order.append, tag)
        sim.run(max_events=3)
        assert order == [0, 1, 2]
        assert sim.events_processed == 3
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_until_boundary_respected_around_batches(self):
        sim = Simulator()
        order = []
        for tag in range(3):
            sim.schedule(10, order.append, ("a", tag))
        for tag in range(3):
            sim.schedule(20, order.append, ("b", tag))
        sim.run(until=20)
        assert order == [("a", 0), ("a", 1), ("a", 2)]
        assert sim.now == 20
        sim.run(until=21)
        assert order[3:] == [("b", 0), ("b", 1), ("b", 2)]

    def test_obs_enabled_batch_counts_every_event(self):
        from repro.obs import Observability

        sim = Simulator(obs=Observability(enabled=True))
        for _ in range(4):
            sim.schedule(10, lambda: None)
        cancelled = sim.schedule(10, lambda: None)
        cancelled.cancel()
        sim.schedule(30, lambda: None)
        sim.run(until=20)
        snapshot = sim.obs.metrics.snapshot()
        assert snapshot["sim.events_executed"] == 4
        assert snapshot["sim.cancelled_skipped"] == 1
        assert sim.events_processed == 4

    def test_step_semantics_unchanged_by_batching(self):
        """step() executes exactly one event even when several share
        the head timestamp."""
        sim = Simulator()
        order = []
        for tag in range(3):
            sim.schedule(10, order.append, tag)
        assert sim.step() is True
        assert order == [0]
        assert sim.now == 10
        sim.run()
        assert order == [0, 1, 2]




class TestBatchingDifferential:
    """The calendar queue and the single-heap engine it replaced
    (``tests/engine_reference.py``) must be observably identical: same
    events, same order, same clock, same counters."""

    @given(st.data())
    def test_random_workload_equivalence(self, data):
        """Random schedules (heavy timestamp collisions, cancellations,
        delay-0 cascades at any priority) posted through all three
        scheduling calls and run in up to three phases (``until`` at a
        shared key's time, ``max_events`` stopping mid-bucket, then a
        drain) fire in the identical order with identical state, read
        from inside callbacks and after every phase, on both engines —
        and in ``(time, priority, posting order)`` order: events sharing
        a ``(time, priority)`` run FIFO whichever call posted them.  A
        cancellation burst over a backlog spread across the same
        buckets compacts the queue mid-run."""
        ops = data.draw(st.lists(
            st.tuples(
                st.integers(0, 5),       # coarse delay -> many collisions
                # priority (call_at: always NORMAL), from the cascades' set
                # so that cascades often land on their poster's own key
                st.sampled_from([0, 5, PRIORITY_NORMAL, 20]),
                st.booleans(),           # cancel this one later? (call_at: cannot)
                # cascade: post another at now, at this priority (call_at:
                # NORMAL); below the poster's priority it overtakes the
                # rest of the poster's bucket
                st.sampled_from([None, 0, 5, PRIORITY_NORMAL, 20]),
                st.sampled_from(["schedule", "schedule_at", "call_at"]),
            ),
            min_size=1, max_size=30,
        ), label="ops")
        until = data.draw(st.one_of(st.none(), st.integers(0, 6)), label="until")
        max_events = data.draw(
            st.one_of(st.none(), st.integers(1, 40)), label="max_events"
        )
        burst = data.draw(st.one_of(st.none(), st.integers(0, 5)), label="burst")

        def execute(engine):
            sim = engine(obs=Observability(enabled=True))
            order = []
            cancellable = []
            backlog = []

            def fire(tag, cascade, how):
                order.append(("fire", tag, sim.now, sim.pending_events,
                              sim.counters()))
                if cascade is not None:
                    mark = ("cascade", tag, sim.now)
                    if how == "call_at":
                        sim.call_at(sim.now, order.append, mark)
                    else:
                        sim.schedule(0, order.append, mark, priority=cascade)

            def cancel_backlog():
                order.append(("burst", sim.now, sim.pending_events))
                for handle in backlog:
                    handle.cancel()
                order.append(("burst-done", sim.pending_events))

            if burst is not None:
                # the burst heads its bucket; the backlog shares it and
                # every other bucket of the workload
                sim.schedule(burst, cancel_backlog)
                backlog.extend(
                    sim.schedule(i % 7, order.append, ("backlog", i))
                    for i in range(80)
                )
            for tag, (delay, priority, cancel, cascade, how) in enumerate(ops):
                if how == "call_at":
                    sim.call_at(delay, fire, tag, cascade, how)
                    continue
                handle = getattr(sim, how)(
                    delay, fire, tag, cascade, how, priority=priority
                )
                if cancel:
                    cancellable.append(handle)
            for handle in cancellable:
                handle.cancel()
            phases = []
            if until is not None:
                sim.run(until=until)
                phases.append((sim.counters(), sim.obs.metrics.snapshot()))
            if max_events is not None:
                sim.run(max_events=max_events)
                phases.append((sim.counters(), sim.obs.metrics.snapshot()))
            sim.run()
            phases.append((sim.counters(), sim.obs.metrics.snapshot()))
            return order, phases

        calendar = execute(Simulator)
        assert calendar == execute(HeapSimulator)
        # everything is posted at now = 0, so delay = absolute time and
        # the op's index orders its posting among the ops
        expected = sorted(
            (delay, PRIORITY_NORMAL if how == "call_at" else priority, tag)
            for tag, (delay, priority, cancel, _cascade, how) in enumerate(ops)
            if how == "call_at" or not cancel
        )
        fired = [entry[1:3] for entry in calendar[0] if entry[0] == "fire"]
        assert fired == [(tag, delay) for delay, _priority, tag in expected]

    def test_recovery_trial_trace_identical_without_batching(self, monkeypatch):
        """A full traced recovery check produces byte-identical traces,
        spans, stats, and violations when every event runs on the
        single-heap reference engine instead of the calendar queue."""
        import json

        from repro.check.config import TrialConfig, fast_overrides
        from repro.check.execute import execute_check

        config = TrialConfig(
            "f2tree", 6, profile="scenario", scenario="C3",
            overrides=fast_overrides(), warmup=milliseconds(500),
        )
        ran = execute_check(config, traced=True)
        with monkeypatch.context() as patches:
            for name in ENGINE_METHODS:
                patches.setattr(Simulator, name, HeapSimulator.__dict__[name])
            reference = execute_check(config, traced=True)

        assert ran.violations == reference.violations == []
        assert ran.stats == reference.stats
        assert json.dumps(ran.trace, sort_keys=True) == \
            json.dumps(reference.trace, sort_keys=True)
        assert json.dumps(ran.spans, sort_keys=True) == \
            json.dumps(reference.spans, sort_keys=True)
