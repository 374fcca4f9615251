"""Backup static-route configuration (§II-B, Table II).

For every switch in an across ring, F²Tree configures static routes:

* the **DCN prefix** (``10.11.0.0/16``, covering every host) via the
  *rightward* across neighbor, and
* the **covering prefix** (``10.10.0.0/15``) via the *leftward* neighbor.

The deliberate length asymmetry is the loop-avoidance trick of §II-B: when
two adjacent switches both lose their downward links (condition 2), both
prefer their *rightward* route, so packets travel around the ring in one
direction instead of ping-ponging.  Equal-length backups would loop — the
``tie_break='none'`` knob exists so tests can demonstrate exactly that.

With the 4-across-port extension the chain continues with ever-shorter
covering prefixes: right distance-2 gets ``/14``, left distance-2 ``/13``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..dataplane.network import Network
from ..net.ip import Prefix
from ..routing.static import StaticRoute, install_static_routes
from ..topology.addressing import DCN_PREFIX
from ..topology.graph import LinkKind, NodeKind, Topology, TopologyError

#: Kinds of switch that participate in across rings.
RING_KINDS = (NodeKind.AGG, NodeKind.CORE, NodeKind.SPINE, NodeKind.INTERMEDIATE)


@dataclass(frozen=True)
class RingNeighbors:
    """A switch's across neighbors in backup-preference order.

    Preference goes *rightward first* — right distance 1, right distance 2,
    ... then left distance 1, 2, ...  For the 2-port design this is the
    paper's (right, left) pair; for the 4-port extension the
    rightward-first order is what lets a packet keep progressing around
    the ring past a switch whose own rightward links are dead (otherwise
    the condition-4 ping-pong would survive the extension).
    """

    #: neighbor names ordered by preference: right-1, right-2, ..., left-1,...
    ordered: tuple

    @property
    def right(self) -> str:
        return self.ordered[0]

    @property
    def left(self) -> str:
        return self.ordered[-1] if len(self.ordered) > 1 else self.ordered[0]


def ring_neighbors_of(topo: Topology, switch: str) -> Optional[RingNeighbors]:
    """Across neighbors of ``switch`` in preference order, or None when the
    switch has no across links.

    Rightward means increasing ring position (wrapping); the paper's
    "the leftmost switch is considered to be a neighbor to the rightmost
    one".  A two-member ring (double link) has right == left.
    """
    node = topo.node(switch)
    across = [l for l in topo.links_of(switch) if l.kind is LinkKind.ACROSS]
    if not across:
        return None
    if node.pod is None or node.position is None:
        raise TopologyError(f"{switch} has across links but no pod/position")
    ring = topo.pod_members(node.kind, node.pod)
    size = len(ring)
    index = next(i for i, n in enumerate(ring) if n.name == switch)
    neighbor_names = {l.other(switch) for l in across}

    ordered: List[str] = []
    for distance in range(1, size):
        right = ring[(index + distance) % size].name
        if right in neighbor_names and right not in ordered:
            ordered.append(right)
    for distance in range(1, size):
        left = ring[(index - distance) % size].name
        if left in neighbor_names and left not in ordered:
            ordered.append(left)
    if set(ordered) != neighbor_names:
        raise TopologyError(
            f"{switch}: across links {sorted(neighbor_names)} do not follow "
            f"ring positions {[n.name for n in ring]}"
        )
    return RingNeighbors(tuple(ordered))


def ring_preference_violation(
    ring: Optional[RingNeighbors], switch: str, next_hop: str, alive: Callable[[str], bool]
) -> Optional[str]:
    """Why the fall-through rule would never take ``switch``'s static
    edge to ``next_hop``, or None when it is justified: ``next_hop`` is a
    ring neighbor and every more-preferred one is dead.  A ring-less
    switch or a hop off the ring is never justified."""
    if ring is None:
        return f"static edge {switch}->{next_hop} on a ring-less switch"
    for preferred in ring.ordered:
        if preferred == next_hop:
            return None
        if alive(preferred):
            return (
                f"unjustified static edge {switch}->{next_hop}: more-preferred "
                f"ring neighbor {preferred} is still alive"
            )
    return f"static edge {switch}->{next_hop} leaves the ring entirely"


def backup_prefix_chain(count: int, dcn_prefix: Prefix = DCN_PREFIX) -> List[Prefix]:
    """``count`` nested prefixes, each one bit shorter than the previous,
    starting at the DCN prefix.  Entry *i* backs across neighbor *i* in
    preference order — shorter prefix == lower preference."""
    chain = [dcn_prefix]
    while len(chain) < count:
        chain.append(chain[-1].supernet())
    return chain


def backup_routes_for(
    topo: Topology,
    switch: str,
    dcn_prefix: Prefix = DCN_PREFIX,
    tie_break: str = "prefix-length",
) -> List[StaticRoute]:
    """The static backup routes F²Tree configures on one switch.

    ``tie_break='prefix-length'`` is the paper's design (each neighbor gets
    a distinct prefix length).  ``tie_break='none'`` gives the right and
    left neighbors the *same* prefix as an ECMP pair — the flawed variant
    that loops under condition 2, kept for the loop-avoidance test.
    """
    neighbors = ring_neighbors_of(topo, switch)
    if neighbors is None:
        return []
    if tie_break == "prefix-length":
        chain = backup_prefix_chain(len(neighbors.ordered), dcn_prefix)
        return [
            StaticRoute(prefix, neighbor)
            for prefix, neighbor in zip(chain, neighbors.ordered)
        ]
    if tie_break == "none":
        # one route, ECMP over both immediate neighbors
        unique = list(dict.fromkeys(neighbors.ordered[:2]))
        return [StaticRoute(dcn_prefix, nh) for nh in unique]
    raise ValueError(f"unknown tie_break {tie_break!r}")


def configure_backup_routes(
    network: Network,
    dcn_prefix: Prefix = DCN_PREFIX,
    tie_break: str = "prefix-length",
    on_error: str = "raise",
) -> Dict[str, List[StaticRoute]]:
    """Install F²Tree backup routes on every ring switch of a network.

    Returns the per-switch configuration — the complete set of changes an
    operator would deploy (together with the rewiring plan, this *is*
    F²Tree).  ``on_error='skip'`` tolerates switches whose ring cannot be
    derived (miswired across links): they simply get no backup routes,
    like a deployment whose config push failed there — the mode the
    static verifier uses to replay miswiring counterexamples.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"unknown on_error {on_error!r}")
    configured: Dict[str, List[StaticRoute]] = {}
    for spec in network.topology.switches():
        try:
            routes = backup_routes_for(
                network.topology, spec.name, dcn_prefix, tie_break
            )
        except TopologyError:
            if on_error == "raise":
                raise
            continue
        if not routes:
            continue
        if tie_break == "none":
            # merge the equal-prefix routes into one ECMP entry
            from ..net.fib import FibEntry

            next_hops = tuple(r.next_hop for r in routes)
            network.switch(spec.name).fib.install(
                FibEntry(dcn_prefix, next_hops, source="static")
            )
        else:
            install_static_routes(network.switch(spec.name), routes)
        configured[spec.name] = routes
    return configured


def render_routing_table(network: Network, switch: str, limit: int = 14) -> str:
    """A Table II-style rendering of one switch's FIB (destination,
    next hops, source): rack subnets first, loopbacks after, static
    backups last (ordered right /16 before left /15, as in the paper)."""
    sw = network.switch(switch)

    def order(e: FibEntry) -> Tuple[int, int, int]:
        if e.source == "static":
            return (1, -e.prefix.length, e.prefix.network)
        return (0, e.prefix.length, e.prefix.network)

    entries = sorted(sw.fib.entries(), key=order)
    lines = [f"Routing table of {switch} ({sw.ip}):"]
    lines.append(f"{'No.':>3}  {'Destination':<22} {'Next hops':<40} Source")
    statics = [e for e in entries if e.source == "static"]
    dynamic = [e for e in entries if e.source != "static"]
    if len(entries) > limit:
        shown = dynamic[: limit - len(statics)] + statics
    else:
        shown = entries
    for index, entry in enumerate(shown, start=1):
        hops = ", ".join(str(nh) for nh in entry.next_hops)
        lines.append(
            f"{index:>3}  {str(entry.prefix):<22} {hops:<40} {entry.source}"
        )
    return "\n".join(lines)
