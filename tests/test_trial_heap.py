"""The trial heap lifetime (``repro.experiments.common.trial_heap``).

Every trial entry point — ``run_recovery``, ``run_partition_aggregate``
(and so its fluid twin) and ``run_flow_scale_trial`` — collects on entry,
pauses the collector through set-up, freezes what set-up built before
the first simulator event, and on exit leaves the collector as it found
it.  A caller that already manages the collector (disabled, or objects
frozen) sees no change at all.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.dataplane.params import NetworkParams
from repro.experiments import common, flowscale, partition_aggregate, recovery
from repro.experiments.partition_aggregate import (
    PartitionAggregateConfig,
    run_partition_aggregate,
)
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.units import milliseconds, seconds
from repro.topology.fattree import fat_tree

_TINY_CELL = PartitionAggregateConfig(
    duration=seconds(1), n_requests=2, n_background_flows=1, ports=4, seed=3
)


def _recovery():
    return recovery.run_recovery(
        fat_tree(4), "udp", flow_duration=milliseconds(500), drain=milliseconds(100)
    )


def _fluid_recovery():
    return recovery.run_recovery(
        fat_tree(4), "udp", params=NetworkParams(backend="flow"),
        warmup=milliseconds(200), flow_duration=milliseconds(500),
        drain=milliseconds(100),
    )


def _cell():
    return run_partition_aggregate("fat-tree", _TINY_CELL)


def _scale():
    return flowscale.run_flow_scale_trial(
        ports=4, flow_duration=milliseconds(500), drain=milliseconds(100)
    )


class _Node:
    self: "_Node"


TRIALS = {
    "recovery": _recovery,
    "fluid-recovery": _fluid_recovery,
    "partition-aggregate": _cell,
    "flow-scale": _scale,
}


@pytest.fixture(autouse=True)
def _collector_restored():
    """Each test starts from, and leaves, an enabled, unfrozen collector."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    yield
    gc.unfreeze()
    gc.enable()


@pytest.mark.parametrize("trial", sorted(TRIALS))
def test_collector_enabled_and_nothing_frozen_after_a_trial(trial):
    TRIALS[trial]()
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_collector_restored_after_set_up_raises():
    with pytest.raises(ValueError, match="unknown conditions kind"):
        run_partition_aggregate("no-such-kind", _TINY_CELL)
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("trial", sorted(TRIALS))
def test_paused_through_set_up_frozen_before_the_first_event(trial, monkeypatch):
    """Set-up runs with the collector off; by the first simulator run
    set-up's objects are frozen and the collector is back on."""
    seen = {}

    def spy(module, name, key):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.setdefault(key, (gc.isenabled(), gc.get_freeze_count()))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(recovery, "build_bundle", "set-up")
    spy(partition_aggregate, "build_bundle", "set-up")
    spy(flowscale, "warm_start_linkstate", "set-up")
    spy(Simulator, "run", "first-event")
    spy(Simulator, "run_until", "first-event")
    TRIALS[trial]()
    assert seen["set-up"] == (False, 0)
    enabled, frozen = seen["first-event"]
    assert enabled and frozen > 0


@pytest.mark.parametrize("trial", sorted(TRIALS))
def test_earlier_cycles_collected_before_set_up(trial, monkeypatch):
    """A garbage cycle left just before the trial is gone when set-up
    starts, so it is not frozen into the trial."""
    seen = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.append(alive())
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(recovery, "build_bundle")
    spy(partition_aggregate, "build_bundle")
    spy(flowscale, "warm_start_linkstate")
    cycle = _Node()
    cycle.self = cycle
    alive = weakref.ref(cycle)
    del cycle
    TRIALS[trial]()
    assert seen[:1] == [None]


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    try:
        _scale()
        _recovery()
        assert not gc.isenabled()
        assert gc.get_freeze_count() == 0
    finally:
        gc.enable()


def test_caller_frozen_objects_stay_frozen():
    sentinel = [["kept frozen by the caller"]]
    gc.freeze()
    try:
        _scale()
        _cell()
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0
        assert not any(obj is sentinel for obj in gc.get_objects())
    finally:
        gc.unfreeze()
    assert any(obj is sentinel for obj in gc.get_objects())


def test_nested_lifetime_is_a_no_op():
    with common.trial_heap() as settled:
        assert not gc.isenabled()
        with common.trial_heap() as inner:
            inner()
            assert not gc.isenabled() and gc.get_freeze_count() == 0
        settled()
        frozen = gc.get_freeze_count()
        assert gc.isenabled() and frozen > 0
        with common.trial_heap() as inner:
            inner()
        assert gc.get_freeze_count() >= frozen > 0
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_managed_and_unmanaged_trials_trace_identically():
    """The collector never reaches simulated behaviour: a traced trial
    inside the lifetime and one under a caller-disabled collector record
    the same events."""

    def traced():
        obs = Observability(enabled=True)
        result = recovery.run_recovery(
            fat_tree(4), "udp", flow_duration=milliseconds(500),
            drain=milliseconds(100), obs=obs,
        )
        return result, [repr(event) for event in obs.trace.events()]

    managed = traced()
    gc.disable()
    try:
        unmanaged = traced()
    finally:
        gc.enable()
    assert managed == unmanaged
