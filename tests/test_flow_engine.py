"""Engine-drive equivalence for both data-plane backends.

The simulator's hot loop drains *same-timestamp batches* (see
``Simulator.run``), and both backends lean on that: the packet backend
for failure storms, the fluid backend for coalescing every network
notification at an instant into one recompute.  These tests pin that
the drive mode — one ``run_until``, many small ``run_until`` chunks,
``max_events``-bounded re-entry, or single ``step()``s — never changes
what either backend computes, and that the fluid model's coalescing
really is one recompute per instant.
"""

from __future__ import annotations

import pytest

from repro.dataplane.network import Network
from repro.dataplane.params import NetworkParams
from repro.experiments.common import build_bundle, leftmost_host, rightmost_host
from repro.failures.injector import FailureEvent, schedule_failures
from repro.net.packet import PROTO_UDP, WIRE_OVERHEAD
from repro.sim.engine import Simulator
from repro.sim.flow import FluidTrafficModel
from repro.sim.flow.warmstart import warm_start_linkstate
from repro.sim.units import microseconds, milliseconds
from repro.topology.fattree import fat_tree
from repro.transport.udp import UdpSender, UdpSink

FAIL_AT = milliseconds(150)
STOP_AT = milliseconds(700)


def _failed_link(network):
    return sorted(
        link.spec.key for link in network.links
        if link.spec.key[0].startswith("agg-")
        and link.spec.key[1].startswith("tor-")
    )[0]


def _drive(sim, mode):
    if mode == "run_until":
        sim.run_until(STOP_AT)
    elif mode == "chunks":
        step = STOP_AT // 7
        for i in range(1, 8):
            sim.run_until(min(STOP_AT, i * step))
        sim.run_until(STOP_AT)
    elif mode == "max_events":
        while sim.now < STOP_AT:
            sim.run(until=STOP_AT, max_events=5)
    else:
        raise AssertionError(mode)


MODES = ["run_until", "chunks", "max_events"]


def _fluid_trial(mode):
    sim = Simulator()
    network = Network(fat_tree(4), sim, NetworkParams(backend="flow"))
    warm_start_linkstate(network)
    model = FluidTrafficModel(network)
    src, dst = leftmost_host(network.topology), rightmost_host(network.topology)
    flow = model.add_cbr_flow(
        "probe", src, dst, dport=7000, sport=10001, protocol=PROTO_UDP,
        packet_bytes=1448 + WIRE_OVERHEAD, interval=microseconds(100),
        start=milliseconds(10), stop=STOP_AT - milliseconds(10),
    )
    a, b = _failed_link(network)
    schedule_failures(network, [FailureEvent(FAIL_AT, a, b)])
    _drive(sim, mode)
    model.finalize()
    return {
        "now": sim.now,
        "events": sim.events_processed,
        "segments": tuple(flow.segments),
        "arrivals": tuple(
            (r.seq, r.sent_at, r.received_at, r.hops) for r in flow.arrivals()
        ),
        "recomputes": model.recomputes,
        "notifications": model.notifications,
    }


def _packet_trial(mode):
    bundle = build_bundle(fat_tree(4))
    sim, network = bundle.sim, bundle.network
    sim.run_until(milliseconds(5))  # partial convergence: live batches
    src, dst = leftmost_host(network.topology), rightmost_host(network.topology)
    sender = UdpSender(
        sim, network.host(src), network.host(dst).ip, 7000, sport=10001,
        payload_bytes=1448, interval=microseconds(100),
    )
    sink = UdpSink(sim, network.host(dst), 7000)
    sender.start(at=milliseconds(10), stop_at=STOP_AT - milliseconds(10))
    a, b = _failed_link(network)
    schedule_failures(network, [FailureEvent(FAIL_AT, a, b)])
    _drive(sim, mode)
    return {
        "now": sim.now,
        "events": sim.events_processed,
        "arrivals": tuple(
            (r.seq, r.sent_at, r.received_at) for r in sink.arrivals
        ),
    }


@pytest.mark.parametrize("mode", MODES[1:])
def test_fluid_backend_is_drive_mode_invariant(mode):
    assert _fluid_trial(mode) == _fluid_trial("run_until")


@pytest.mark.parametrize("mode", MODES[1:])
def test_packet_backend_is_drive_mode_invariant(mode):
    assert _packet_trial(mode) == _packet_trial("run_until")


def test_step_matches_bounded_run_on_fluid_backend():
    """N single ``step()`` calls land on exactly the state N
    ``max_events``-bounded run events produce."""

    def setup():
        sim = Simulator()
        network = Network(fat_tree(4), sim, NetworkParams(backend="flow"))
        warm_start_linkstate(network)
        model = FluidTrafficModel(network)
        src = leftmost_host(network.topology)
        dst = rightmost_host(network.topology)
        model.add_cbr_flow(
            "probe", src, dst, dport=7000, sport=10001,
            packet_bytes=1448 + WIRE_OVERHEAD, interval=microseconds(100),
            start=milliseconds(10), stop=STOP_AT,
        )
        a, b = _failed_link(network)
        schedule_failures(network, [FailureEvent(FAIL_AT, a, b)])
        return sim, model

    stepped_sim, stepped_model = setup()
    for _ in range(200):
        assert stepped_sim.step()
    ran_sim, ran_model = setup()
    ran_sim.run(max_events=200)

    assert stepped_sim.now == ran_sim.now
    assert stepped_sim.events_processed == ran_sim.events_processed == 200
    assert stepped_model.recomputes == ran_model.recomputes
    active = sorted(stepped_model.flows)
    for name in active:
        assert (
            stepped_model.flows[name].segments
            == ran_model.flows[name].segments
        )


def test_same_instant_notifications_coalesce_to_one_recompute():
    """Two links failing at the same instant fan out several listener
    notifications; the fluid model schedules exactly one recompute for
    that instant."""
    sim = Simulator()
    network = Network(fat_tree(4), sim, NetworkParams(backend="flow"))
    warm_start_linkstate(network)
    model = FluidTrafficModel(network)
    src, dst = leftmost_host(network.topology), rightmost_host(network.topology)
    model.add_cbr_flow(
        "probe", src, dst, dport=7000, sport=10001,
        packet_bytes=1448 + WIRE_OVERHEAD, interval=microseconds(100),
        start=milliseconds(10), stop=milliseconds(400),
    )
    links = sorted(
        link.spec.key for link in network.links
        if link.spec.key[0].startswith("agg-")
        and link.spec.key[1].startswith("tor-")
    )
    schedule_failures(
        network,
        [FailureEvent(FAIL_AT, a, b) for a, b in links[:2]],
    )
    # run to just before the instant, then through it (well before the
    # detection delay fires any FIB change)
    sim.run_until(FAIL_AT - 1)
    recomputes_before = model.recomputes
    notifications_before = model.notifications
    sim.run_until(FAIL_AT + 1)
    assert model.notifications - notifications_before >= 2
    assert model.recomputes - recomputes_before == 1
