"""Differential validation of the hot-path caches.

The data-plane caches (FIB match chains keyed on :attr:`Fib.generation`,
resolve/liveness caches keyed on the adjacency epoch) and the memoized
SPF oracle are pure speedups: every cached answer must equal what the
uncached code computes.  This file pins that equivalence four ways:

1. **FIB chains** — for arbitrary install/withdraw churn,
   :meth:`Fib.chain` equals a fresh :meth:`Fib.matches` trie walk for
   every probe address (hypothesis).
2. **Per-packet resolution** — on a converged F²Tree under arbitrary
   frozen-dataplane link flaps, :meth:`SwitchNode._resolve_indexed`
   equals an uncached reference that rebuilds the chain and the
   liveness sets per packet (hypothesis).
3. **Flood fan-out** — on fabrics with parallel links, under frozen
   detection flips and real fail/restore, ``send_control`` takes the
   channel and destination the uncached code picks and the protocol's
   live-neighbour list equals a sorted recomputation (hypothesis).
4. **Whole-system traces** — a full recovery check trial executed with
   *every* cache monkeypatched away produces a byte-identical event
   trace, identical stats, and identical violations.  This is the
   strongest form of the claim: no observable behaviour depends on any
   cache being populated.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.f2tree import f2tree
from repro.dataplane.link import Channel
from repro.dataplane.node import SwitchNode
from repro.experiments.common import build_bundle
from repro.net.ecmp import select_next_hop
from repro.net.fib import Fib, FibEntry, LOCAL
from repro.net.ip import IPv4Address, Prefix
from repro.net.packet import PROTO_ROUTING, PROTO_UDP, Packet
from repro.sim.units import milliseconds
from repro.topology.aspen import aspen_tree
from repro.topology.graph import NodeKind

# ----------------------------------------------------- 1. FIB match chains

#: a small prefix universe so install/withdraw sequences collide often
#: (withdrawing absent prefixes and re-installing present ones are the
#: interesting cache-invalidation cases)
_BASES = (0x0A000000, 0x0A010000, 0x0A018000, 0x0AFF0000)
_LENGTHS = (8, 15, 16, 24, 32)
_PREFIXES = sorted(
    {Prefix(base & (0xFFFFFFFF << (32 - length)), length)
     for base in _BASES for length in _LENGTHS},
)

_prefix = st.sampled_from(_PREFIXES)
_op = st.one_of(
    st.tuples(st.just("install"), _prefix, st.integers(1, 3)),
    st.tuples(st.just("withdraw"), _prefix),
)


def _probes():
    """Addresses that hit every chain shape the universe can produce."""
    probes = []
    for prefix in _PREFIXES:
        probes.append(prefix.address(min(1, prefix.num_addresses - 1)))
        probes.append(prefix.address(max(0, prefix.num_addresses - 2)))
    probes.append(IPv4Address(0xC0A80001))  # matches nothing
    return probes


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_cached_chain_equals_uncached_trie_walk(ops):
    fib = Fib()
    probes = _probes()
    for op in ops:
        if op[0] == "install":
            _, prefix, hops = op
            fib.install(FibEntry(
                prefix, tuple(f"nh{i}" for i in range(hops)), source="test"
            ))
        else:
            fib.withdraw(op[1])
        # interleaved probing exercises generation-based invalidation:
        # every mutation must be visible through the cache immediately
        for address in probes:
            assert fib.chain(address) == tuple(fib.matches(address))
    for address in probes:
        chain = fib.chain(address)
        assert chain == tuple(fib.matches(address))
        expected = chain[0] if chain else None
        assert fib.lookup(address) == expected


# ------------------------------------------- 2. per-packet resolve (frozen)

_ENV: dict = {}


def _environment():
    """One converged 8-port F²Tree shared by every example (teardown in
    each example restores all links, keeping examples independent)."""
    if _ENV:
        return _ENV
    topo = f2tree(8, hosts_per_tor=1)
    bundle = build_bundle(topo)
    bundle.converge()
    pairs = sorted({
        link.key
        for link in topo.links.values()
        if topo.node(link.a).kind != NodeKind.HOST
        and topo.node(link.b).kind != NodeKind.HOST
    })
    switches = sorted(s.name for s in bundle.network.switches())
    tors = [t for t in topo.tors() if t.subnet is not None]
    src_ip = bundle.network.host(
        next(n.name for n in topo.nodes.values() if n.kind == NodeKind.HOST)
    ).ip
    _ENV.update(
        topo=topo, bundle=bundle, pairs=pairs, switches=switches,
        tors=tors, src_ip=src_ip,
    )
    return _ENV


def _flip(network, a: str, b: str, up: bool) -> None:
    for link in network.links_between(a, b):
        link.channel_ab.set_up(up)
        link.channel_ba.set_up(up)
        link.force_detection(up)


def _uncached_resolve(switch, packet):
    """Reference per-packet resolution: fresh trie walk, fresh liveness
    lists, no memoization anywhere."""
    name = switch.name
    depth = 0
    for entry in switch.fib.matches(packet.dst):
        live = [
            nh for nh in entry.next_hops
            if nh == LOCAL or any(
                link.detected_up_by(name)
                for link in switch.links_by_peer.get(nh, ())
            )
        ]
        if live:
            return entry, select_next_hop(live, packet.flow_key, switch.salt), depth
        depth += 1
    return None, None, depth


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cached_resolve_equals_uncached_reference(data):
    env = _environment()
    network = env["bundle"].network
    failed = data.draw(
        st.sets(st.sampled_from(env["pairs"]), max_size=5), label="failed links"
    )
    names = data.draw(
        st.lists(st.sampled_from(env["switches"]), min_size=1, max_size=4,
                 unique=True),
        label="switches probed",
    )
    flows = data.draw(
        st.lists(st.tuples(st.integers(1024, 65535), st.integers(1024, 65535)),
                 min_size=1, max_size=4),
        label="flow ports",
    )
    try:
        for a, b in failed:
            _flip(network, a, b, up=False)
        for name in names:
            switch = network.switch(name)
            for tor in env["tors"]:
                for sport, dport in flows:
                    packet = Packet(
                        src=env["src_ip"], dst=tor.subnet.address(2),
                        protocol=PROTO_UDP, size_bytes=1500,
                        sport=sport, dport=dport,
                    )
                    assert switch._resolve_indexed(packet) == \
                        _uncached_resolve(switch, packet), (name, sorted(failed))
    finally:
        for a, b in failed:
            _flip(network, a, b, up=True)


# ------------------------------------------------- 3. flood fan-out memos

_FABRICS = {
    # two parallel links between every agg and its cores
    "aspen": lambda: aspen_tree(4, 1),
    # rings everywhere; the two-member core rings are parallel pairs
    "f2tree": lambda: f2tree(6, hosts_per_tor=1),
}

_step = st.one_of(
    st.tuples(st.just("force"), st.integers(0, 63), st.booleans()),
    st.tuples(st.sampled_from(["fail", "restore"]), st.integers(0, 63)),
)


def _switch_links(network):
    """Switch-to-switch links, members of parallel bundles first (so a
    small index is one *member*, leaving its sibling alive)."""
    links = [
        link for link in network.links
        if isinstance(link.node_a, SwitchNode)
        and isinstance(link.node_b, SwitchNode)
    ]
    return sorted(
        links,
        key=lambda link: (
            len(network.links_between(link.node_a.name, link.node_b.name)) < 2,
            link.name,
        ),
    )


def _assert_fan_out_matches_uncached(network, protocols):
    """Every switch, every peer: ``send_control`` offers its packet to
    the first detected-up member's channel, addressed to the peer (or
    sends nothing when none is), and the live-neighbour list is the
    sorted set of protocol neighbours with a detected-up member."""
    offered = []
    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(
            Channel, "enqueue",
            lambda self, packet: offered.append((self, packet)) or True,
        )
        for switch in network.switches():
            name = switch.name
            live_peers = []
            for peer, members in switch.links_by_peer.items():
                up = [link for link in members if link.detected_up_by(name)]
                if up:
                    live_peers.append(peer)
                del offered[:]
                sent = switch.send_control(peer, ("probe",), 120)
                if not up:
                    assert sent is False and not offered, (name, peer)
                    continue
                assert sent is True
                ((channel, packet),) = offered
                assert channel is up[0].channel_from(name), (name, peer)
                assert packet.dst == network.nodes[peer].ip
                assert (packet.src, packet.protocol, packet.size_bytes) == \
                    (switch.ip, PROTO_ROUTING, 120)
                assert packet.payload == ("probe",)
            protocol = protocols[name]
            assert list(protocol._live_protocol_neighbors()) == sorted(
                peer for peer in live_peers
                if peer in protocol.protocol_neighbors
            ), name


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_FABRICS)), steps=st.lists(_step, max_size=8))
# first member of a parallel bundle detected dead, second alive — then
# the second too, then the first back
@example(kind="aspen", steps=[("force", 0, False)])
@example(kind="f2tree", steps=[("fail", 0), ("fail", 1), ("restore", 0)])
def test_flood_fan_out_memos_equal_uncached(kind, steps):
    bundle = build_bundle(_FABRICS[kind]())
    bundle.converge()
    network, sim = bundle.network, bundle.sim
    links = _switch_links(network)
    assert len(network.links_between(
        links[0].node_a.name, links[0].node_b.name
    )) == 2
    _assert_fan_out_matches_uncached(network, bundle.protocols)
    for op, index, *up in steps:
        link = links[index % len(links)]
        if op == "force":
            link.force_detection(*up)
        else:
            getattr(link, op)()
            # past detection (60 ms): the detectors fire, adjacency
            # epochs move and the re-flood runs over the memos
            sim.run(until=sim.now + milliseconds(150))
        _assert_fan_out_matches_uncached(network, bundle.protocols)


# --------------------------------------- 4. whole-system trace byte-identity


def _disable_all_caches(monkeypatch):
    """Monkeypatch every hot-path cache back to its uncached reference."""
    from repro.dataplane.node import NetworkNode, SwitchNode
    from repro.routing.linkstate import LinkStateProtocol
    from repro.routing.spf import compute_routes
    import repro.check.invariants
    import repro.routing.spf_cache
    import repro.dataplane.link
    import repro.net.ecmp

    def uncached_chain(self, address):
        # chain_hits/chain_misses are observable (telemetry cache tables),
        # and they are a pure function of the lookup sequence — so the
        # uncached reference reproduces the accounting exactly while
        # always re-walking the trie instead of serving a cached chain
        if self._cache_generation != self.generation:
            self._chain_cache.clear()
            self._cache_generation = self.generation
        value = address.value
        if value in self._chain_cache:
            self.chain_hits += 1
        else:
            self.chain_misses += 1
            self._chain_cache[value] = ()
        return tuple(self.matches(address))

    monkeypatch.setattr(Fib, "chain", uncached_chain)

    def live_links_to(self, peer):
        name = self.name
        return [
            link for link in self.links_by_peer.get(peer, ())
            if link.detected_up_by(name)
        ]

    def resolve_indexed(self, packet):
        entry, live, depth = self._resolve_walk(packet.dst)
        if entry is None:
            return None, None, depth
        return entry, select_next_hop(live, packet.flow_key, self.salt), depth

    memoised_send_control = SwitchNode.send_control

    def send_control(self, peer, payload, size_bytes):
        self._control_routes.clear()  # every send re-derives its route
        return memoised_send_control(self, peer, payload, size_bytes)

    monkeypatch.setattr(NetworkNode, "live_links_to", live_links_to)
    monkeypatch.setattr(SwitchNode, "_resolve_indexed", resolve_indexed)
    # the link hop's memos: control route and live-neighbour list per
    # adjacency epoch, ECMP hash and serialization delay per argument
    monkeypatch.setattr(SwitchNode, "send_control", send_control)
    monkeypatch.setattr(
        LinkStateProtocol, "_live_protocol_neighbors",
        LinkStateProtocol._sorted_live_neighbors,
    )
    monkeypatch.setattr(
        repro.net.ecmp, "flow_hash", repro.net.ecmp.flow_hash.__wrapped__
    )
    monkeypatch.setattr(
        repro.dataplane.link, "transmission_delay",
        repro.dataplane.link.transmission_delay.__wrapped__,
    )
    # the protocol's SPF stack and the convergence-agreement oracle:
    # bypass the shared SpfCache entirely (every computation is a fresh
    # Dijkstra).  The engine's logical delta classification still runs,
    # so EV_SPF_RUN trace attributes are untouched.
    monkeypatch.setattr(
        repro.routing.spf_cache, "compute_routes_cached", compute_routes
    )
    monkeypatch.setattr(
        repro.check.invariants, "compute_routes_cached", compute_routes
    )


def test_recovery_trace_identical_with_caches_disabled(monkeypatch):
    """A full recovery trial (converge, fail links on the best path, fast
    reroute, reconverge) must emit the byte-identical obs trace whether
    every cache is live or every cache is bypassed."""
    from repro.check.config import TrialConfig, fast_overrides
    from repro.check.execute import execute_check
    from repro.sim.units import milliseconds

    config = TrialConfig(
        "f2tree", 6, profile="scenario", scenario="C3",
        overrides=fast_overrides(), warmup=milliseconds(500),
    )
    cached = execute_check(config, traced=True)

    with monkeypatch.context() as patches:
        _disable_all_caches(patches)
        uncached = execute_check(config, traced=True)

    assert cached.violations == uncached.violations == []
    # stats["caches"] is accounting *about* the cache stack, so only its
    # cache-independent parts survive the comparison: SPF accounting is
    # logical (noted in the protocol, outside the patched cache) and FIB
    # chain misses count distinct (generation, dst) lookups — but chain
    # *hits* depend on how many repeats the resolve layer above absorbs,
    # which is exactly what this test strips away
    cached_stats, uncached_stats = dict(cached.stats), dict(uncached.stats)
    cached_caches = cached_stats.pop("caches")
    uncached_caches = uncached_stats.pop("caches")
    assert cached_stats == uncached_stats
    assert cached_caches["spf_cache"] == uncached_caches["spf_cache"]
    assert (
        cached_caches["fib_chain"]["misses"]
        == uncached_caches["fib_chain"]["misses"]
    )
    blob_cached = json.dumps(cached.trace, sort_keys=True)
    blob_uncached = json.dumps(uncached.trace, sort_keys=True)
    assert blob_cached == blob_uncached
