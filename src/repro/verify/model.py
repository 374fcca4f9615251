"""The static network model: FIBs without a simulator.

:class:`StaticNetworkModel` computes, for every switch, exactly the FIB
the running system holds once converged:

* **connected** routes — a ToR/leaf's own host subnet via ``LOCAL``;
* **routed** entries — one whole-fabric SPF solve (:func:`repro.routing.
  spf_batch.batch_compute_routes`) over an idealized LSDB in which
  every switch advertises what :func:`repro.routing.linkstate.
  deploy_linkstate` would (the host subnet for ToRs, a ``/32`` loopback
  for everyone);
* **static** entries — the F²Tree backup routes of
  :func:`repro.core.backup_routes.backup_routes_for`.

On top of those it offers the two inputs of the checkers' shared walk,
:func:`repro.net.forwarding.live_match`: :meth:`chain`, the LPM chain
for an address, and :meth:`alive`, which prunes next hops whose every
parallel link is in the failure set.  The walk stops at the first entry
with a live hop, as the data plane does, but keeps no ECMP hash: the
checks reason over the *set* of live hops ECMP could spray over, so a
certificate holds for every hash outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.backup_routes import RingNeighbors, backup_routes_for, ring_neighbors_of
from ..net.fib import LOCAL, FibEntry
from ..net.ip import IPv4Address, Prefix
from ..routing.lsdb import Lsa, Lsdb
from ..routing.spf_batch import batch_compute_routes
from ..topology.addressing import assign_addresses
from ..topology.graph import Link, LinkKey, NodeKind, Topology, TopologyError, link_key

#: failure set representation: canonical pair -> number of failed
#: parallel links between that pair
FailedLinks = Mapping[LinkKey, int]

#: layer rank, for "downward" link classification (higher forwards down)
_LAYER_RANK = {
    NodeKind.HOST: 0,
    NodeKind.TOR: 1,
    NodeKind.LEAF: 1,
    NodeKind.AGG: 2,
    NodeKind.SPINE: 3,
    NodeKind.INTERMEDIATE: 3,
    NodeKind.CORE: 3,
}


@dataclass(frozen=True)
class DestSpec:
    """One verified destination: a rack subnet and a representative host
    address inside it (F²Tree's guarantees are per destination prefix)."""

    tor: str
    subnet: Prefix
    address: IPv4Address


class StaticNetworkModel:
    """Converged FIBs of a topology, computed symbolically.

    ``tie_break`` mirrors ``configure_backup_routes`` ("prefix-length"
    is the paper's design, "none" the flawed equal-prefix ECMP variant).
    ``shortest_first`` inverts the LPM chain order — the static analogue
    of the fuzzer's ``fib-tiebreak-inverted`` mutant.

    A switch whose backup routes cannot be derived (e.g. across links
    that do not follow ring positions) does not crash the build; the
    defect lands in :attr:`config_errors` for the wiring census and the
    switch simply has no statics, exactly like a deployment where the
    config push failed.
    """

    def __init__(
        self,
        topo: Topology,
        tie_break: str = "prefix-length",
        shortest_first: bool = False,
    ) -> None:
        self.topo = topo
        self.tie_break = tie_break
        self.shortest_first = shortest_first
        self.plan = assign_addresses(topo)
        #: (switch, message) pairs for backup configs that failed to derive
        self.config_errors: List[Tuple[str, str]] = []

        self.switches: List[str] = sorted(
            n.name for n in topo.nodes.values() if n.kind.is_switch
        )
        #: switch -> peer switch -> number of parallel links
        self.link_count: Dict[str, Dict[str, int]] = {
            name: {} for name in self.switches
        }
        #: every switch<->switch link (the failure universe)
        self.fabric_links: List[Link] = []
        for link in sorted(topo.links.values(), key=lambda l: l.link_id):
            if not (
                topo.node(link.a).kind.is_switch
                and topo.node(link.b).kind.is_switch
            ):
                continue
            self.fabric_links.append(link)
            for end, peer in ((link.a, link.b), (link.b, link.a)):
                counts = self.link_count[end]
                counts[peer] = counts.get(peer, 0) + 1

        self.dests: List[DestSpec] = [
            DestSpec(t.name, t.subnet, t.subnet.address(2))
            for t in topo.tors()
            if t.subnet is not None
        ]
        self.ring_neighbors: Dict[str, Optional[RingNeighbors]] = {}
        self.fibs: Dict[str, List[FibEntry]] = {}
        self._build_fibs()
        #: switch kinds with at least one ring member: these layers claim
        #: F²Tree protection, so an unringed switch of the same kind is a
        #: deployment defect, not a plain (unprotected) topology
        self.protected_kinds = {
            self.topo.node(name).kind
            for name in self.switches
            if self.ring_neighbors.get(name) is not None
        }

    # ------------------------------------------------------------- build

    def _build_fibs(self) -> None:
        lsdb = Lsdb()
        for name in self.switches:
            node = self.topo.node(name)
            prefixes: List[Prefix] = []
            if node.subnet is not None:
                prefixes.append(node.subnet)
            assert node.ip is not None
            prefixes.append(Prefix(node.ip, 32))
            neighbors = tuple(sorted({
                peer
                for peer in self.topo.neighbors(name)
                if self.topo.node(peer).kind.is_switch
            }))
            lsdb.insert(Lsa(name, 1, neighbors, tuple(prefixes)))

        # one LSDB, every switch: the whole-fabric question, asked once
        routed_by_switch = batch_compute_routes(lsdb)
        for name in self.switches:
            entries: List[FibEntry] = []
            node = self.topo.node(name)
            if node.subnet is not None:
                entries.append(
                    FibEntry(node.subnet, (LOCAL,), source="connected")
                )
            entries.extend(
                FibEntry(prefix, hops, source="linkstate")
                for prefix, hops in sorted(
                    routed_by_switch[name].items(),
                    key=lambda kv: (kv[0].network, kv[0].length),
                )
            )
            entries.extend(self._static_entries(name))
            self.fibs[name] = entries

    def _static_entries(self, name: str) -> List[FibEntry]:
        try:
            self.ring_neighbors[name] = ring_neighbors_of(self.topo, name)
            routes = backup_routes_for(
                self.topo, name, tie_break=self.tie_break
            )
        except TopologyError as exc:
            self.ring_neighbors[name] = None
            self.config_errors.append((name, str(exc)))
            return []
        if not routes:
            return []
        # merge equal prefixes into one ECMP entry (tie_break="none")
        grouped: Dict[Prefix, List[str]] = {}
        for route in routes:
            grouped.setdefault(route.prefix, []).append(route.next_hop)
        return [
            FibEntry(prefix, tuple(hops), source="static")
            for prefix, hops in grouped.items()
        ]

    # --------------------------------------------------------- resolution

    def chain(self, switch: str, address: IPv4Address) -> List[FibEntry]:
        """Entries of ``switch`` covering ``address``, in the order the
        data plane's ``Fib.matches`` yields them (longest first, or
        shortest first under the inverted-tie-break mutation)."""
        matching = [
            e for e in self.fibs[switch] if e.prefix.contains(address)
        ]
        matching.sort(
            key=lambda e: e.prefix.length, reverse=not self.shortest_first
        )
        return matching

    def alive(self, switch: str, failed: FailedLinks) -> Callable[[str], bool]:
        """Whether ``switch`` still sees a peer up under ``failed``, as a
        predicate on the peer: at least one of the parallel links between
        them is outside the failure set.  A next hop that is not a
        neighbor at all (miswired statics) is dead."""
        counts = self.link_count.get(switch, {})

        def peer_alive(peer: str) -> bool:
            return counts.get(peer, 0) > failed.get(link_key(switch, peer), 0)

        return peer_alive

    # ----------------------------------------------------------- queries

    def downward_links(self, switch: str) -> List[Link]:
        """Links from ``switch`` to a strictly lower layer (the links
        whose failure triggers the paper's fall-through)."""
        rank = _LAYER_RANK[self.topo.node(switch).kind]
        return [
            l
            for l in self.topo.links_of(switch)
            if _LAYER_RANK[self.topo.node(l.other(switch)).kind] < rank
            and self.topo.node(l.other(switch)).kind.is_switch
        ]

    def should_be_protected(self, switch: str) -> bool:
        """Whether failures on ``switch`` must be survivable: it is a
        ring member, or other switches of its kind are (asymmetric
        protection is a miswiring, not a design choice)."""
        return (
            self.ring_neighbors.get(switch) is not None
            or self.topo.node(switch).kind in self.protected_kinds
        )
