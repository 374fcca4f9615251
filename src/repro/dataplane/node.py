"""Runtime nodes: L3 switches and end hosts.

**Switches** implement the forwarding behaviour the whole paper rests on
(§II-A/§II-B): an incoming packet is looked up in the FIB, matches are
walked from the longest prefix down, and at each match the next hops whose
adjacency is *locally detected dead* are pruned.  The first match with a
surviving next hop wins; ECMP hashing picks among survivors.  This single
mechanism produces:

* normal shortest-path forwarding,
* ECMP's immediate protection of upward links (prune one of N/2-1 equals),
* F²Tree's fast reroute (fall through to the /16 and then /15 static
  backups when every longer match is dead), and
* the condition-4 ping-pong (§II-C): two adjacent switches bouncing a
  packet over their ring until TTL expiry — fidelity we rely on for C7.

**Hosts** are deliberately thin: one uplink to their ToR (which is also
their default route), a protocol/port demux for the transport layer, and a
receive tap for the metrics collectors.

Per the production convention in §II-B, a switch bundles all ports into one
L3 interface with a single IP, so next hops are *neighbor switches*, not
interfaces; with parallel links (Aspen) the neighbor is alive while any of
the parallel links is detected up.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Protocol, TYPE_CHECKING, Tuple

from ..net.ecmp import fnv1a_64, select_next_hop
from ..net.fib import Fib, FibEntry, LOCAL
from ..net.ip import IPv4Address
from ..net.packet import DEFAULT_TTL, PROTO_ROUTING, Packet
from ..obs.trace import EV_FIB_FALLTHROUGH, EV_PKT_DELIVER, EV_PKT_DROP
from ..sim.engine import Simulator
from .link import Channel, RuntimeLink
from .params import NetworkParams

#: Buckets for the FIB match-walk-length histogram: 1 = longest prefix won,
#: 2+ = fall-through past dead matches (3 = the /24 -> /16 -> /15 chain).
MATCH_DEPTH_BUCKETS = (1, 2, 3, 4, 8)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.graph import Node as NodeSpec


class RoutingAgent(Protocol):
    """What a switch expects from its control-plane resident."""

    def on_neighbor_change(self, peer: str, up: bool) -> None:
        """Called when the switch's detection declares a neighbor up/down."""

    def on_control_packet(self, packet: Packet, sender: str) -> None:
        """Called for packets addressed to this switch with PROTO_ROUTING."""


#: handler(packet, local_node) for transport demultiplexing
PacketHandler = Callable[[Packet, "NetworkNode"], None]


class NetworkNode:
    """Common behaviour of switches and hosts."""

    def __init__(self, sim: Simulator, params: NetworkParams, spec: "NodeSpec") -> None:
        if spec.ip is None:
            raise ValueError(f"node {spec.name} has no address; assign_addresses first")
        self.sim = sim
        self.params = params
        self.spec = spec
        #: cached observability facade — hot paths check one attribute
        self._obs = sim.obs
        self.name = spec.name
        self.ip: IPv4Address = spec.ip
        self.links: List[RuntimeLink] = []
        self.links_by_peer: Dict[str, List[RuntimeLink]] = {}
        #: bumped whenever this node's *detected* adjacency changes; every
        #: liveness cache below (and the switch resolve cache) keys off it
        self.adjacency_epoch = 0
        #: peer -> live links, valid for the current adjacency epoch
        self._live_links_cache: Dict[str, List[RuntimeLink]] = {}
        #: peer -> (out channel, peer ip) of :meth:`SwitchNode.send_control`,
        #: valid for the current adjacency epoch (empty on hosts)
        self._control_routes: Dict[str, tuple] = {}
        self.drops: Counter = Counter()
        #: observers of detected-adjacency changes (the fluid backend's
        #: recompute trigger); called synchronously on every epoch bump
        self.epoch_listeners: List[Callable[[], None]] = []
        #: handlers keyed by (protocol, local port); port 0 = any port
        self._handlers: Dict[tuple, PacketHandler] = {}
        #: taps invoked for every locally-delivered packet
        self.receive_taps: List[PacketHandler] = []

    # ------------------------------------------------------------- plumbing

    def attach_link(self, link: RuntimeLink) -> None:
        peer = link.other(self.name).name
        self.links.append(link)
        self.links_by_peer.setdefault(peer, []).append(link)
        self._bump_adjacency_epoch()

    def _bump_adjacency_epoch(self) -> None:
        """Invalidate every liveness-derived cache on this node."""
        self.adjacency_epoch += 1
        self._live_links_cache.clear()
        self._control_routes.clear()
        for listener in self.epoch_listeners:
            listener()

    def live_links_to(self, peer: str) -> List[RuntimeLink]:
        """Links to ``peer`` this node currently believes are up.

        Cached per adjacency epoch; callers must treat the list as
        read-only (every mutation path goes through the detectors, which
        bump the epoch via :meth:`on_adjacency_change`).
        """
        cached = self._live_links_cache.get(peer)
        if cached is None:
            name = self.name
            cached = [
                link
                for link in self.links_by_peer.get(peer, ())
                if link.detected_up_by(name)
            ]
            self._live_links_cache[peer] = cached
        return cached

    def neighbor_alive(self, peer: str) -> bool:
        """True while at least one link to ``peer`` is detected up.

        Uncached: its hot callers memoise per adjacency epoch above it
        (the switch resolve cache, the protocol's live-neighbour list).
        """
        name = self.name
        return any(
            link.detected_up_by(name)
            for link in self.links_by_peer.get(peer, ())
        )

    def register_handler(self, protocol: int, port: int, handler: PacketHandler) -> None:
        """Register a transport handler; ``port=0`` catches every port."""
        key = (protocol, port)
        if key in self._handlers:
            raise ValueError(f"{self.name}: handler already bound for {key}")
        self._handlers[key] = handler

    def unregister_handler(self, protocol: int, port: int) -> None:
        self._handlers.pop((protocol, port), None)

    def port_in_use(self, protocol: int, port: int) -> bool:
        """Whether a handler is bound to (protocol, port)."""
        return (protocol, port) in self._handlers

    # ------------------------------------------------------------- receive

    def receive(self, packet: Packet, sender: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def _record_drop(self, reason: str) -> None:
        """Count a drop locally and (when tracing) in the obs layer."""
        self.drops[reason] += 1
        obs = self._obs
        if obs.enabled:
            obs.metrics.counter("pkt.dropped", reason=reason).inc()
            obs.trace.emit(self.sim.now, EV_PKT_DROP, self.name, reason=reason)

    def deliver_local(self, packet: Packet, sender: str) -> None:
        """Hand a packet addressed to this node to the upper layers."""
        obs = self._obs
        if obs.enabled:
            obs.metrics.counter("pkt.delivered").inc()
            obs.trace.emit(
                self.sim.now,
                EV_PKT_DELIVER,
                self.name,
                proto=packet.protocol,
                sport=packet.sport,
                dport=packet.dport,
                size=packet.size_bytes,
                hops=packet.hops,
            )
        for tap in self.receive_taps:
            tap(packet, self)
        handler = self._handlers.get((packet.protocol, packet.dport))
        if handler is None:
            handler = self._handlers.get((packet.protocol, 0))
        if handler is None:
            self._record_drop("no_handler")
            return
        handler(packet, self)

    def on_adjacency_change(self, link: RuntimeLink, up: bool) -> None:
        """Failure detection callback; switches extend this.

        Detected link state only ever changes immediately before this is
        invoked (``_EndpointDetector._fire``), so bumping the epoch here
        is what keeps the liveness caches coherent."""
        self._bump_adjacency_epoch()


class SwitchNode(NetworkNode):
    """An L3 switch: FIB, ECMP, local fast-reroute fall-through."""

    def __init__(self, sim: Simulator, params: NetworkParams, spec: "NodeSpec") -> None:
        super().__init__(sim, params, spec)
        self.fib = Fib()
        self.salt = fnv1a_64(spec.name.encode("utf-8"))
        #: destination value -> (entry, live next hops, depth), valid for
        #: _resolve_cache_key = (fib generation, adjacency epoch); the
        #: ECMP hash stays per-packet, so caching the pruned candidate
        #: set cannot change which hop any flow takes
        self._resolve_cache: Dict[int, tuple] = {}
        self._resolve_cache_key = (-1, -1)
        self.routing_agent: Optional[RoutingAgent] = None
        #: directly attached hosts: ip value -> link to the host
        self.local_hosts: Dict[int, RuntimeLink] = {}
        #: taps invoked for every *forwarded* packet (path tracing, loops)
        self.forward_taps: List[Callable[[Packet, str], None]] = []

    # ------------------------------------------------------------- control

    def attach_host(self, host_ip: IPv4Address, link: RuntimeLink) -> None:
        self.local_hosts[host_ip.value] = link

    def on_adjacency_change(self, link: RuntimeLink, up: bool) -> None:
        """Detection outcome: tell the routing agent about the peer.

        With parallel links the peer is only reported down when its last
        live link goes, and up on the first revival.
        """
        super().on_adjacency_change(link, up)  # invalidate liveness caches
        peer = link.other(self.name).name
        live = len(self.live_links_to(peer))
        if self.routing_agent is None:
            return
        if not up and live == 0:
            self.routing_agent.on_neighbor_change(peer, up=False)
        elif up and live == 1:
            self.routing_agent.on_neighbor_change(peer, up=True)

    def send_control(self, peer: str, payload: object, size_bytes: int) -> bool:
        """Send a hop-by-hop control packet to a direct neighbor.

        Control traffic is addressed to the neighbor itself and never
        FIB-routed; it only crosses links this switch believes are up.
        Which channel that is (:meth:`_control_route`) is memoised per
        adjacency epoch: a flood asks for every neighbor once per LSA
        batch.
        """
        route = self._control_routes.get(peer)
        if route is None:
            route = self._control_routes[peer] = self._control_route(peer)
        channel, dst = route
        if channel is None:
            return False
        return channel.enqueue(Packet(
            self.ip, dst, PROTO_ROUTING, size_bytes,
            0, 0, DEFAULT_TTL, payload, self.sim.now,
        ))

    def _control_route(
        self, peer: str
    ) -> Tuple[Optional[Channel], Optional[IPv4Address]]:
        """Uncached: the (out channel, peer address) control traffic to
        ``peer`` takes — over the first link to it that is detected up —
        or ``(None, None)`` while every link to it is detected down."""
        name = self.name
        for link in self.links_by_peer.get(peer, ()):
            if link.detected_up_by(name):
                return link.channel_from(name), link.other(name).ip
        return None, None

    # ------------------------------------------------------------ data path

    def receive(self, packet: Packet, sender: str) -> None:
        if packet.dst.value == self.ip.value:
            if packet.protocol == PROTO_ROUTING:
                if self.routing_agent is not None:
                    self.routing_agent.on_control_packet(packet, sender)
                return
            self.deliver_local(packet, sender)
            return
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        """FIB fall-through forwarding (see module docstring)."""
        if packet.ttl <= 1:
            self._record_drop("ttl_expired")
            return
        entry, next_hop, depth = self._resolve_indexed(packet)
        if entry is None:
            self._record_drop("no_route")
            return
        obs = self._obs
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("pkt.forwarded").inc()
            metrics.histogram(
                "fib.match_depth", buckets=MATCH_DEPTH_BUCKETS
            ).observe(depth + 1)
            if depth > 0:
                metrics.counter("fib.fallthrough").inc()
                if entry.source == "static":
                    metrics.counter("fib.backup_route_hits").inc()
                obs.trace.emit(
                    self.sim.now,
                    EV_FIB_FALLTHROUGH,
                    self.name,
                    prefix=str(entry.prefix),
                    source=entry.source,
                    depth=depth,
                )
        packet.forwarded()
        for tap in self.forward_taps:
            tap(packet, self.name)
        if next_hop == LOCAL:
            self._deliver_to_host(packet)
            return
        link = self.link_for(next_hop, packet.flow_key)  # live by resolve()
        link.channel_from(self.name).enqueue(packet)

    def link_for(self, next_hop: str, flow_key: tuple) -> RuntimeLink:
        """The (possibly parallel) link this flow uses toward ``next_hop``.

        Deterministic per flow — also used by experiments that must fail
        exactly the member link a flow is hashed onto (Aspen trees).
        """
        links = self.live_links_to(next_hop)
        return select_next_hop(links, flow_key, self.salt ^ 0xA5A5)

    def resolve(
        self, packet: Packet
    ) -> Tuple[Optional[FibEntry], Optional[str]]:
        """The (entry, next hop) the switch would use for ``packet``.

        Walks FIB matches longest-first, pruning next hops whose adjacency
        is detected dead; shared by actual forwarding and by offline path
        tracing.  Returns ``(None, None)`` when no live route exists.
        """
        entry, next_hop, _depth = self._resolve_indexed(packet)
        return entry, next_hop

    def _resolve_indexed(
        self, packet: Packet
    ) -> Tuple[Optional[FibEntry], Optional[str], int]:
        """:meth:`resolve` plus how many matches were walked to get there.

        ``depth`` 0 means the longest match had a live next hop; >0 counts
        the dead longer matches skipped (backup-route fall-through).

        The (entry, live hop set, depth) triple is a pure function of the
        destination given the FIB generation and adjacency epoch, so it is
        cached per destination; only the flow-key ECMP selection runs per
        packet.  :meth:`_resolve_walk` is the uncached reference walk the
        differential tests compare against.
        """
        key = (self.fib.generation, self.adjacency_epoch)
        cache = self._resolve_cache
        if self._resolve_cache_key != key:
            cache.clear()
            self._resolve_cache_key = key
        dst = packet.dst
        cached = cache.get(dst.value)
        if cached is None:
            cached = self._resolve_walk(dst)
            cache[dst.value] = cached
        entry, live, depth = cached
        if entry is None:
            return None, None, depth
        return entry, select_next_hop(live, packet.flow_key, self.salt), depth

    def _resolve_walk(
        self, dst: IPv4Address
    ) -> Tuple[Optional[FibEntry], Optional[List[str]], int]:
        """Uncached LPM fall-through: ``(entry, live hops, depth)``.

        Walks the (itself cached) FIB chain longest-first, pruning next
        hops whose adjacency is detected dead — byte-identical to the
        pre-cache walk over ``Fib.matches``.
        """
        depth = 0
        for entry in self.fib.chain(dst):
            live = [
                nh
                for nh in entry.next_hops
                if nh == LOCAL or self.neighbor_alive(nh)  # type: ignore[arg-type]
            ]
            if live:
                return entry, live, depth
            depth += 1
        return None, None, depth

    def _deliver_to_host(self, packet: Packet) -> None:
        link = self.local_hosts.get(packet.dst.value)
        if link is None:
            self._record_drop("unknown_host")
            return
        if not link.detected_up_by(self.name):
            self._record_drop("host_link_down")
            return
        link.channel_from(self.name).enqueue(packet)


class HostNode(NetworkNode):
    """An end host: one uplink, protocol demux, nothing else."""

    def __init__(self, sim: Simulator, params: NetworkParams, spec: "NodeSpec") -> None:
        super().__init__(sim, params, spec)
        self.uplink: Optional[RuntimeLink] = None

    def attach_link(self, link: RuntimeLink) -> None:
        if self.uplink is not None:
            raise ValueError(f"host {self.name} is single-homed; second link {link.name}")
        super().attach_link(link)
        self.uplink = link

    def send(self, packet: Packet) -> bool:
        """Send toward the ToR (the host's default gateway)."""
        if self.uplink is None:
            raise RuntimeError(f"host {self.name} has no uplink")
        return self.uplink.channel_from(self.name).enqueue(packet)

    def receive(self, packet: Packet, sender: str) -> None:
        if packet.dst != self.ip:
            self._record_drop("not_mine")
            return
        self.deliver_local(packet, sender)
