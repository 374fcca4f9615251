"""The runtime network: topology + data plane + failure injection.

:class:`Network` instantiates runtime switches, hosts and links from a
:class:`~repro.topology.graph.Topology`, installs the connected routes
(each ToR's host subnet), and offers the experiment-facing controls:
failing/restoring links or whole switches (a switch failure is modelled as
the failure of all its links, exactly as the paper states in footnote 1),
and offline path tracing through the current FIBs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..net.fib import FibEntry, LOCAL
from ..net.packet import DEFAULT_TTL, Packet, PROTO_UDP
from ..obs.registry import MetricsRegistry
from ..sim.engine import PRIORITY_CONTROL, Simulator
from ..sim.units import Time
from ..topology.addressing import AddressPlan, assign_addresses
from ..topology.graph import NodeKind, Topology, TopologyError
from .link import RuntimeLink
from .node import HostNode, NetworkNode, SwitchNode
from .params import NetworkParams


class Network:
    """A simulated network bound to a simulator instance."""

    def __init__(
        self,
        topology: Topology,
        sim: Optional[Simulator] = None,
        params: Optional[NetworkParams] = None,
        plan: Optional[AddressPlan] = None,
    ) -> None:
        self.topology = topology
        self.sim = sim or Simulator()
        self.params = params or NetworkParams()
        self.plan = plan or assign_addresses(topology)

        self.nodes: Dict[str, NetworkNode] = {}
        self.links: List[RuntimeLink] = []
        self._links_by_pair: Dict[Tuple[str, str], List[RuntimeLink]] = {}

        self._build()

    # ----------------------------------------------------------------- build

    def _build(self) -> None:
        for spec in self.topology.nodes.values():
            if spec.kind is NodeKind.HOST:
                self.nodes[spec.name] = HostNode(self.sim, self.params, spec)
            else:
                self.nodes[spec.name] = SwitchNode(self.sim, self.params, spec)

        for link_spec in self.topology.links.values():
            node_a = self.nodes[link_spec.a]
            node_b = self.nodes[link_spec.b]
            link = RuntimeLink(self.sim, self.params, link_spec, node_a, node_b)
            node_a.attach_link(link)
            node_b.attach_link(link)
            self.links.append(link)
            self._links_by_pair.setdefault(link_spec.key, []).append(link)

        # connected routes: each ToR/leaf owns its host subnet
        for tor_spec in self.topology.nodes_of_kind(NodeKind.TOR, NodeKind.LEAF):
            tor = self.switch(tor_spec.name)
            if tor_spec.subnet is None:
                raise TopologyError(f"{tor_spec.name} has no subnet")
            tor.fib.install(
                FibEntry(tor_spec.subnet, (LOCAL,), source="connected")
            )
            for host_spec in self.topology.host_of_tor(tor_spec.name):
                host_links = self._links_by_pair[
                    tuple(sorted((tor_spec.name, host_spec.name)))
                ]
                assert host_spec.ip is not None
                tor.attach_host(host_spec.ip, host_links[0])

    # ----------------------------------------------------------------- query

    def node(self, name: str) -> NetworkNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"no runtime node {name!r}") from None

    def switch(self, name: str) -> SwitchNode:
        node = self.node(name)
        if not isinstance(node, SwitchNode):
            raise TopologyError(f"{name!r} is not a switch")
        return node

    def host(self, name: str) -> HostNode:
        node = self.node(name)
        if not isinstance(node, HostNode):
            raise TopologyError(f"{name!r} is not a host")
        return node

    def switches(self) -> List[SwitchNode]:
        return [n for n in self.nodes.values() if isinstance(n, SwitchNode)]

    def hosts(self) -> List[HostNode]:
        return [n for n in self.nodes.values() if isinstance(n, HostNode)]

    def links_between(self, a: str, b: str) -> List[RuntimeLink]:
        return list(self._links_by_pair.get(tuple(sorted((a, b))), ()))

    def link_between(self, a: str, b: str) -> RuntimeLink:
        found = self.links_between(a, b)
        if len(found) != 1:
            raise TopologyError(
                f"expected exactly one runtime link {a}<->{b}, found {len(found)}"
            )
        return found[0]

    def drop_summary(self) -> Counter:
        """Aggregate per-node drop reasons across the network."""
        total: Counter = Counter()
        for node in self.nodes.values():
            total.update(node.drops)
        return total

    def fold_fib_chain_counters(self, metrics: MetricsRegistry) -> Tuple[int, int]:
        """Add the fabric's FIB match-chain cache counters to ``metrics``.

        Sums every switch's ``chain_hits`` / ``chain_misses`` into the
        ``fib.chain.hits`` / ``fib.chain.misses`` counters (left
        unregistered when both are zero), so cache hit rates travel with
        a trial's metrics; returns the ``(hits, misses)`` totals.
        """
        hits = misses = 0
        for switch in self.switches():
            hits += switch.fib.chain_hits
            misses += switch.fib.chain_misses
        if hits or misses:
            metrics.counter("fib.chain.hits").inc(hits)
            metrics.counter("fib.chain.misses").inc(misses)
        return hits, misses

    # ------------------------------------------------------------- failures

    def fail_link(self, a: str, b: str) -> None:
        """Take every (parallel) link between ``a`` and ``b`` down now."""
        found = self.links_between(a, b)
        if not found:
            raise TopologyError(f"no link {a}<->{b} to fail")
        for link in found:
            link.fail()

    def restore_link(self, a: str, b: str) -> None:
        found = self.links_between(a, b)
        if not found:
            raise TopologyError(f"no link {a}<->{b} to restore")
        for link in found:
            link.restore()

    def fail_link_direction(self, from_node: str, to_node: str) -> None:
        """Unidirectional failure: kill only the ``from -> to`` direction
        of every (parallel) link between the pair."""
        found = self.links_between(from_node, to_node)
        if not found:
            raise TopologyError(f"no link {from_node}<->{to_node} to fail")
        for link in found:
            link.fail_direction(from_node)

    def restore_link_direction(self, from_node: str, to_node: str) -> None:
        found = self.links_between(from_node, to_node)
        if not found:
            raise TopologyError(f"no link {from_node}<->{to_node} to restore")
        for link in found:
            link.restore_direction(from_node)

    def schedule_directional_failure(self, from_node: str, to_node: str, at: Time) -> None:
        self.sim.schedule_at(
            at, self.fail_link_direction, from_node, to_node,
            priority=PRIORITY_CONTROL,
        )

    def fail_switch(self, name: str) -> None:
        """Fail a whole switch = fail all of its links (paper footnote 1)."""
        for link in self.switch(name).links:
            link.fail()

    def restore_switch(self, name: str) -> None:
        for link in self.switch(name).links:
            link.restore()

    def schedule_link_failure(self, a: str, b: str, at: Time) -> None:
        """Schedule a bidirectional link failure at absolute time ``at``."""
        self.sim.schedule_at(at, self.fail_link, a, b, priority=PRIORITY_CONTROL)

    def schedule_link_restore(self, a: str, b: str, at: Time) -> None:
        self.sim.schedule_at(at, self.restore_link, a, b, priority=PRIORITY_CONTROL)

    # ---------------------------------------------------------------- tracing

    def trace_route(
        self,
        src_host: str,
        dst_host: str,
        protocol: int = PROTO_UDP,
        sport: int = 10000,
        dport: int = 20000,
        max_hops: int = DEFAULT_TTL,
        check_actual: bool = False,
    ) -> Tuple[List[str], bool]:
        """The path a packet of this five-tuple would take *right now*.

        Walks the switches' :meth:`~repro.dataplane.node.SwitchNode.resolve`
        without scheduling any events.  Returns ``(names, completed)`` —
        ``completed`` is False when the walk hits a dead end or exceeds
        ``max_hops`` (e.g. the condition-4 ping-pong loop).

        Forwarding decisions always follow the switches' *detected* state
        (what real hardware acts on).  With ``check_actual=True`` the walk
        additionally fails when the chosen link is actually dead — i.e.
        it answers "would a packet sent now arrive?", exposing the
        undetected-failure black hole.
        """
        src = self.host(src_host)
        dst = self.host(dst_host)
        probe = Packet(
            src=src.ip,
            dst=dst.ip,
            protocol=protocol,
            size_bytes=64,
            sport=sport,
            dport=dport,
        )
        path = [src_host]
        if src.uplink is None:
            return path, False
        current: NetworkNode = src.uplink.other(src_host)
        for _ in range(max_hops):
            path.append(current.name)
            if isinstance(current, HostNode):
                return path, current.name == dst_host
            assert isinstance(current, SwitchNode)
            entry, next_hop = current.resolve(probe)
            if entry is None:
                return path, False
            if next_hop == LOCAL:
                if probe.dst.value != dst.ip.value:
                    return path, False
                path.append(dst_host)
                return path, True
            live = current.live_links_to(next_hop)  # type: ignore[arg-type]
            if not live:
                return path, False
            chosen = live[0]
            if check_actual and not chosen.channel_from(current.name).up:
                return path, False
            current = chosen.other(current.name)
        return path, False
