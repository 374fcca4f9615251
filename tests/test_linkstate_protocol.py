"""Tests for the distributed link-state protocol: flooding, convergence,
SPF throttling, FIB update delay — the delays the paper decomposes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.network import Network
from repro.dataplane.params import NetworkParams
from repro.net.fib import Fib, FibDelta, FibEntry
from repro.net.ip import Prefix
from repro.obs import Observability
from repro.obs.trace import EV_FIB_INSTALL
from repro.routing.linkstate import SOURCE, LinkStateProtocol, deploy_linkstate
from repro.sim.engine import Simulator
from repro.sim.units import milliseconds, seconds
from repro.topology.fattree import fat_tree
from repro.topology.graph import NodeKind


@pytest.fixture()
def converged():
    topo = fat_tree(4)
    net = Network(topo)
    protocols = deploy_linkstate(net)
    net.sim.run(until=seconds(3))
    return topo, net, protocols


class TestInitialConvergence:
    def test_every_switch_learns_every_rack_subnet(self, converged):
        topo, net, _ = converged
        subnets = [t.subnet for t in topo.nodes_of_kind(NodeKind.TOR)]
        for switch in net.switches():
            for subnet in subnets:
                if switch.spec.subnet == subnet:
                    continue  # own subnet is connected, not routed
                entry = switch.fib.exact(subnet)
                assert entry is not None, (switch.name, str(subnet))
                assert entry.source == "linkstate"

    def test_initial_convergence_within_a_second(self):
        topo = fat_tree(4)
        net = Network(topo)
        deploy_linkstate(net)
        net.sim.run(until=seconds(1))
        path, ok = net.trace_route("host-0-0-0", "host-3-1-1")
        assert ok

    def test_upward_routes_are_ecmp(self, converged):
        topo, net, _ = converged
        tor = net.switch("tor-0-0")
        remote = topo.node("tor-3-1").subnet
        entry = tor.fib.exact(remote)
        assert entry is not None
        assert set(entry.next_hops) == {"agg-0-0", "agg-0-1"}

    def test_loopbacks_advertised(self, converged):
        topo, net, _ = converged
        tor = net.switch("tor-0-0")
        core_ip = net.switch("core-0-0").ip
        assert tor.fib.exact(Prefix(core_ip, 32)) is not None

    def test_all_pairs_reachable(self, converged):
        topo, net, _ = converged
        hosts = [h.name for h in topo.hosts()]
        for src in hosts[:4]:
            for dst in hosts[-4:]:
                if src == dst:
                    continue
                _, ok = net.trace_route(src, dst)
                assert ok, (src, dst)


class TestFailureReconvergence:
    def test_recovery_takes_detection_plus_spf_plus_fib(self, converged):
        """The §I arithmetic: ~60 + ~200 + ~10 ms after a downward failure."""
        topo, net, _ = converged
        t0 = net.sim.now
        path, ok = net.trace_route("host-0-0-0", "host-3-1-1")
        agg_d, tor_d = path[-3], path[-2]
        net.fail_link(agg_d, tor_d)
        # before detection + SPF + FIB install: still black-holed
        net.sim.run(until=t0 + milliseconds(200))
        _, ok = net.trace_route("host-0-0-0", "host-3-1-1")
        assert not ok
        # after ~270 ms everything converged
        net.sim.run(until=t0 + milliseconds(320))
        after, ok = net.trace_route("host-0-0-0", "host-3-1-1")
        assert ok
        assert agg_d not in after  # rerouted around the failed switch

    def test_link_restore_reconverges(self, converged):
        topo, net, protocols = converged
        t0 = net.sim.now
        net.fail_link("agg-0-0", "tor-0-0")
        net.sim.run(until=t0 + seconds(1))
        net.restore_link("agg-0-0", "tor-0-0")
        net.sim.run(until=t0 + seconds(4))
        # the restored link is usable again: tor-0-0's subnet reachable
        # from agg-0-0 directly
        entry = net.switch("agg-0-0").fib.exact(topo.node("tor-0-0").subnet)
        assert entry is not None
        assert "tor-0-0" in entry.next_hops

    def test_switch_failure_routes_around(self, converged):
        topo, net, _ = converged
        t0 = net.sim.now
        path, _ = net.trace_route("host-0-0-0", "host-3-1-1")
        core = path[3]
        net.fail_switch(core)
        net.sim.run(until=t0 + milliseconds(400))
        after, ok = net.trace_route("host-0-0-0", "host-3-1-1")
        assert ok and core not in after


class TestSpfThrottling:
    def test_quiet_network_uses_initial_delay(self, converged):
        """A single change after a quiet period: SPF at +200 ms."""
        topo, net, protocols = converged
        proto = protocols["tor-0-0"]
        runs_before = proto.stats.spf_runs
        t0 = net.sim.now
        net.fail_link("agg-3-0", "tor-3-0")  # remote failure
        # LSA arrives ~60 ms (detection) + flooding; SPF 200 ms later
        net.sim.run(until=t0 + milliseconds(240))
        assert proto.stats.spf_runs == runs_before
        net.sim.run(until=t0 + milliseconds(320))
        assert proto.stats.spf_runs == runs_before + 1

    def test_churn_doubles_hold_up_to_max(self):
        """§IV-B: sustained failures push the hold toward ~10 s."""
        topo = fat_tree(4)
        net = Network(topo)
        protocols = deploy_linkstate(net)
        net.sim.run(until=seconds(3))
        # a failure every 300 ms somewhere in the fabric
        links = [
            (l.a, l.b)
            for l in topo.links.values()
            if not l.a.startswith("host") and not l.b.startswith("host")
        ]
        for index in range(30):
            a, b = links[index % len(links)]
            at = seconds(3) + index * milliseconds(300)
            net.schedule_link_failure(a, b, at)
            net.schedule_link_restore(a, b, at + milliseconds(150))
        net.sim.run(until=seconds(3) + seconds(12))
        proto = protocols["tor-0-0"]
        max_hold = max(proto.stats.hold_history)
        assert max_hold >= seconds(4)  # exponential growth happened
        assert max_hold <= NetworkParams().spf_hold_max

    def test_hold_resets_after_quiet_period(self, converged):
        topo, net, protocols = converged
        proto = protocols["tor-0-0"]
        t0 = net.sim.now
        net.fail_link("agg-3-0", "tor-3-0")
        net.sim.run(until=t0 + seconds(5))
        hold_len = len(proto.stats.hold_history)
        # quiet for > hold; the next change gets the initial delay again
        net.restore_link("agg-3-0", "tor-3-0")
        net.sim.run(until=t0 + seconds(12))
        assert proto.stats.hold_history[hold_len:]
        assert proto.stats.hold_history[-1] == NetworkParams().spf_hold


class TestFibUpdateDelay:
    def test_routes_apply_only_after_fib_delay(self):
        params = NetworkParams(fib_update_delay=milliseconds(50))
        topo = fat_tree(4)
        net = Network(topo, params=params)
        protocols = deploy_linkstate(net)
        net.sim.run(until=seconds(3))
        proto = protocols["tor-0-0"]
        t0 = net.sim.now
        net.fail_link("agg-3-0", "tor-3-0")
        installs_before = proto.stats.fib_installs
        # SPF runs ~ t0 + 60 (detect) + flood + 200 (initial delay)
        net.sim.run(until=t0 + milliseconds(290))
        assert proto.stats.spf_runs > 0
        assert proto.stats.fib_installs == installs_before
        net.sim.run(until=t0 + milliseconds(340))
        assert proto.stats.fib_installs == installs_before + 1


def _download(proto, routes):
    """Hand ``routes`` to the protocol as its SPF result and run the FIB
    download: the one way a protocol comes to hold a table."""
    proto._pending_routes = routes
    proto._install_pending()
    assert proto.route_table is routes


def _sort_everything_download(installed, routes):
    """The pre-"diff first" download from one route table to the next:
    walk ``sorted(routes)`` in full."""
    withdrawals = tuple(sorted(p for p in installed if p not in routes))
    installs, changes = [], [f"-{p}" for p in withdrawals]
    for prefix in sorted(routes):
        current = installed.get(prefix)
        if current == routes[prefix]:
            continue
        installs.append(FibEntry(prefix, routes[prefix], source=SOURCE))
        changes.append(f"{'+' if current is None else '~'}{prefix}")
    return FibDelta(tuple(installs), withdrawals), changes


class TestFibDownloadOrder:
    def test_delta_and_trace_are_prefix_sorted_whatever_the_dict_order(self):
        sim = Simulator(Observability(enabled=True))
        net = Network(fat_tree(4), sim, NetworkParams())
        switch = net.switch("tor-0-0")
        proto = LinkStateProtocol(sim, switch, net.params, switch_neighbors=())
        rack = [Prefix(f"10.{i}.0.0/24") for i in range(6)]
        loopback = Prefix("10.3.0.7/32")
        # previous download and new table both in anti-prefix dict order
        previous = {p: ("a", "b") for p in reversed(rack[:5])}
        _download(proto, previous)
        sim.obs.trace.clear()
        routes = {
            rack[5]: ("a",),          # new
            loopback: ("b",),         # new, sorts between rack[3] and rack[4]
            rack[3]: ("b",),          # replaced
            rack[1]: ("a",),          # replaced
            rack[0]: ("a", "b"),      # unchanged; rack[2], rack[4] withdrawn
        }
        assert list(routes) != sorted(routes)
        applied = []
        apply_delta = switch.fib.apply_delta

        def recording_apply_delta(delta):
            applied.append(delta)
            apply_delta(delta)

        switch.fib.apply_delta = recording_apply_delta

        proto._pending_routes = dict(routes)
        proto._install_pending()

        want_delta, want_changes = _sort_everything_download(previous, routes)
        assert applied == [want_delta]
        assert list(want_delta.installs) == sorted(
            want_delta.installs, key=lambda e: e.prefix
        )
        (event,) = sim.obs.trace.events(kind=EV_FIB_INSTALL)
        assert event.data["changes"] == want_changes == [
            "-10.2.0.0/24", "-10.4.0.0/24",
            "~10.1.0.0/24", "~10.3.0.0/24", "+10.3.0.7/32", "+10.5.0.0/24",
        ]
        assert (event.data["installed"], event.data["withdrawn"]) == (4, 2)
        assert proto.routes == {p: FibEntry(p, h, source=SOURCE) for p, h in routes.items()}


#: /24s and /32s that interleave when sorted, away from fat_tree(4)'s own
_DOWNLOAD_PREFIXES = [Prefix(f"172.16.{i}.0/24") for i in range(5)] + [
    Prefix("172.16.1.9/32"), Prefix("172.16.3.1/32"), Prefix("172.16.3.2/32"),
]
_route_tables = st.dictionaries(
    st.sampled_from(_DOWNLOAD_PREFIXES),
    st.sampled_from([("a",), ("b",), ("a", "b"), ("b", "c")]),
)


def _shuffled(draw, table):
    """``table`` as a new dict in a drawn insertion order."""
    return dict(draw(st.permutations(sorted(table.items()))))


def _download_twice(previous, new):
    """Download ``previous`` then ``new`` on a fresh traced switch; what
    the second download did, as seen from every side that counts it."""
    sim = Simulator(Observability(enabled=True))
    net = Network(fat_tree(4), sim, NetworkParams())
    switch = net.switch("tor-0-0")
    proto = LinkStateProtocol(sim, switch, net.params, switch_neighbors=())
    _download(proto, previous)
    sim.obs.trace.clear()
    fib = switch.fib

    def counts():
        return (
            proto.stats.fib_installs,
            sim.obs.metrics.counter("fib.installs").value,
            fib.installs, fib.withdrawals,
        )

    before = counts()
    applied = []
    apply_delta = fib.apply_delta
    fib.apply_delta = lambda delta: (applied.append(delta), apply_delta(delta))
    _download(proto, new)
    (event,) = sim.obs.trace.events(kind=EV_FIB_INSTALL)
    return {
        "applied": applied,
        "trace": (event.time, event.node, dict(event.data)),
        "counted": tuple(b - a for a, b in zip(before, counts())),
        "fib": [e for e in fib.entries() if e.source == SOURCE],
        "routes": proto.routes,
    }


class TestFibDownloadDifferential:
    """``_install_pending`` against the sort-everything reference, over
    every relation two route tables can have — including being one
    object, where the protocol skips the diff."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_download_equals_the_sort_everything_reference(self, data):
        draw = data.draw
        previous = _shuffled(draw, draw(_route_tables))
        relation = draw(
            st.sampled_from(["overlapping", "disjoint", "equal", "same"])
        )
        if relation == "same":
            new = previous
        elif relation == "equal":
            new = _shuffled(draw, previous)
        else:
            new = _shuffled(draw, {
                prefix: hops
                for prefix, hops in draw(_route_tables).items()
                if relation == "overlapping" or prefix not in previous
            })

        got = _download_twice(previous, new)
        want_delta, want_changes = _sort_everything_download(previous, new)
        assert got["applied"] == [want_delta]
        _, _, detail = got["trace"]
        assert detail["changes"] == want_changes  # 8 prefixes: never truncated
        assert (detail["installed"], detail["withdrawn"], detail["changed"]) == (
            len(want_delta.installs), len(want_delta.withdrawals), len(want_delta)
        )
        assert got["counted"] == (
            1, 1, len(want_delta.installs), len(want_delta.withdrawals)
        )
        # the FIB holds what a from-scratch load of the new table would
        scratch = Fib()
        scratch.bulk_load(tuple(
            FibEntry(prefix, hops, source=SOURCE) for prefix, hops in new.items()
        ))
        assert got["fib"] == list(scratch.entries())
        assert got["routes"] == {e.prefix: e for e in scratch.entries()}
        # ... and an equal table in a distinct object — where the identity
        # test cannot fire — is the same download from every side
        assert _download_twice(previous, dict(new)) == got


class TestStats:
    def test_lsa_counters_move(self, converged):
        _, _, protocols = converged
        proto = protocols["core-0-0"]
        assert proto.stats.lsas_originated >= 1
        assert proto.stats.lsas_flooded > 0
        assert proto.stats.lsas_accepted > 0
        assert proto.stats.spf_runs >= 1

    def test_host_adjacency_changes_ignored(self, converged):
        """Host link failures must not perturb the routing protocol."""
        topo, net, protocols = converged
        proto = protocols["tor-0-0"]
        originated = proto.stats.lsas_originated
        net.fail_link("host-0-0-0", "tor-0-0")
        net.sim.run(until=net.sim.now + milliseconds(200))
        assert proto.stats.lsas_originated == originated
