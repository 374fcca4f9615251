"""Topology graph model.

A :class:`Topology` is a *static description* of a network: typed nodes
(hosts, ToR / aggregation / core switches, ...) and links between them.  It
knows nothing about simulation; the data plane (:mod:`repro.dataplane`)
instantiates runtime objects from it, and the F²Tree rewiring algorithm
(:mod:`repro.core.f2tree`) transforms one topology description into another.

Parallel links between the same pair of nodes are allowed (Aspen trees use
them), so links carry unique integer ids and lookups by endpoint pair return
lists.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..net.ip import IPv4Address, Prefix


class NodeKind(enum.Enum):
    """Role of a node in the DCN."""

    HOST = "host"
    TOR = "tor"
    AGG = "agg"
    CORE = "core"
    LEAF = "leaf"
    SPINE = "spine"
    INTERMEDIATE = "intermediate"

    @property
    def is_switch(self) -> bool:
        return self is not NodeKind.HOST


class LinkKind(enum.Enum):
    """Role of a link — used by failure scenarios and the rewiring logic."""

    HOST = "host"  # host <-> ToR/leaf
    TOR_AGG = "tor-agg"
    AGG_CORE = "agg-core"
    LEAF_SPINE = "leaf-spine"
    ACROSS = "across"  # F^2Tree intra-pod ring link


class TopologyError(Exception):
    """Raised for inconsistent topology constructions."""


@dataclass
class Node:
    """A node in the topology description.

    ``pod`` groups switches that attach to the same subtree (paper §II-B,
    following Aspen's definition); for core switches it is the *ring group*
    (the set of cores attached to same-index aggregation switches).
    ``position`` is the left-to-right index inside the pod; across-link rings
    are built in ``position`` order.
    """

    name: str
    kind: NodeKind
    pod: Optional[int] = None
    position: Optional[int] = None
    ip: Optional[IPv4Address] = None
    subnet: Optional[Prefix] = None  # ToR/leaf host subnet

    def __hash__(self) -> int:
        return hash(self.name)


#: canonical (sorted) endpoint pair identifying an undirected link
LinkKey = Tuple[str, str]


def link_key(a: str, b: str) -> LinkKey:
    """The canonical key of the link between ``a`` and ``b``."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Link:
    """An undirected link between two nodes."""

    link_id: int
    a: str
    b: str
    kind: LinkKind

    @property
    def key(self) -> LinkKey:
        """Canonical (sorted) endpoint pair."""
        return link_key(self.a, self.b)

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a}<->{self.b}"


class Topology:
    """A named collection of nodes and links."""

    def __init__(self, name: str, params: Optional[dict] = None) -> None:
        self.name = name
        self.params: dict = dict(params or {})
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[int, Link] = {}
        self._next_link_id = 0
        self._adjacency: Dict[str, List[int]] = {}

    # ---------------------------------------------------------------- build

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        self._adjacency[node.name] = []
        return node

    def add_link(self, a: str, b: str, kind: LinkKind) -> Link:
        if a not in self.nodes or b not in self.nodes:
            missing = a if a not in self.nodes else b
            raise TopologyError(f"link endpoint {missing!r} is not a node")
        if a == b:
            raise TopologyError(f"self-link on {a!r}")
        link = Link(self._next_link_id, a, b, kind)
        self._next_link_id += 1
        self.links[link.link_id] = link
        self._adjacency[a].append(link.link_id)
        self._adjacency[b].append(link.link_id)
        return link

    def remove_link(self, link: Link) -> None:
        """Remove a link (used by the rewiring algorithm)."""
        if self.links.get(link.link_id) is not link:
            raise TopologyError(f"link {link} is not in topology {self.name!r}")
        del self.links[link.link_id]
        self._adjacency[link.a].remove(link.link_id)
        self._adjacency[link.b].remove(link.link_id)

    # ---------------------------------------------------------------- query

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"no node named {name!r}") from None

    def links_of(self, name: str) -> List[Link]:
        """All links incident to a node (its degree = port usage)."""
        return [self.links[i] for i in self._adjacency[name]]

    def degree(self, name: str) -> int:
        return len(self._adjacency[name])

    def neighbors(self, name: str) -> List[str]:
        """Neighbor names (with multiplicity for parallel links)."""
        return [self.links[i].other(name) for i in self._adjacency[name]]

    def links_between(self, a: str, b: str) -> List[Link]:
        """All (possibly parallel) links joining ``a`` and ``b``."""
        return [
            self.links[i]
            for i in self._adjacency.get(a, ())
            if self.links[i].other(a) == b
        ]

    def link_between(self, a: str, b: str) -> Link:
        """The single link joining ``a`` and ``b`` (error if 0 or >1)."""
        found = self.links_between(a, b)
        if len(found) != 1:
            raise TopologyError(
                f"expected exactly one link {a}<->{b}, found {len(found)}"
            )
        return found[0]

    def nodes_of_kind(self, *kinds: NodeKind) -> List[Node]:
        """Nodes of the given kind(s), sorted by (pod, position, name) so
        that "leftmost" / "rightmost" in the paper's figures is well defined."""
        wanted = set(kinds)
        selected = [n for n in self.nodes.values() if n.kind in wanted]
        selected.sort(key=lambda n: (
            n.pod if n.pod is not None else -1,
            n.position if n.position is not None else -1,
            n.name,
        ))
        return selected

    def hosts(self) -> List[Node]:
        return self.nodes_of_kind(NodeKind.HOST)

    def switches(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind.is_switch]

    def tors(self) -> List[Node]:
        return self.nodes_of_kind(NodeKind.TOR, NodeKind.LEAF)

    def pod_members(self, kind: NodeKind, pod: int) -> List[Node]:
        """Members of one pod of the given kind, in ring (position) order."""
        members = [
            n for n in self.nodes.values() if n.kind is kind and n.pod == pod
        ]
        members.sort(key=lambda n: (n.position if n.position is not None else 0, n.name))
        return members

    def pods_of_kind(self, kind: NodeKind) -> List[int]:
        """Sorted distinct pod indices among nodes of ``kind``."""
        return sorted({
            n.pod for n in self.nodes.values() if n.kind is kind and n.pod is not None
        })

    def host_of_tor(self, tor: str) -> List[Node]:
        """Hosts attached to a ToR/leaf, in position order."""
        attached = [
            self.nodes[peer]
            for peer in self.neighbors(tor)
            if self.nodes[peer].kind is NodeKind.HOST
        ]
        attached.sort(key=lambda n: (n.position if n.position is not None else 0, n.name))
        return attached

    def tor_of_host(self, host: str) -> Node:
        """The ToR/leaf a host hangs off (hosts are single-homed)."""
        switches = [
            self.nodes[peer]
            for peer in self.neighbors(host)
            if self.nodes[peer].kind.is_switch
        ]
        if len(switches) != 1:
            raise TopologyError(f"host {host!r} has {len(switches)} switch links")
        return switches[0]

    # ----------------------------------------------------------- validation

    def validate_port_budget(self, ports: int, kinds: Iterable[NodeKind]) -> None:
        """Check that no switch of the given kinds exceeds its port count."""
        wanted = set(kinds)
        for node in self.nodes.values():
            if node.kind in wanted and self.degree(node.name) > ports:
                raise TopologyError(
                    f"{node.name} uses {self.degree(node.name)} ports "
                    f"but switches have only {ports}"
                )

    def connected_component(self, start: str) -> set[str]:
        """Names reachable from ``start`` (links assumed healthy)."""
        return reachable(start, self.neighbors)

    def __str__(self) -> str:
        return (
            f"Topology({self.name!r}: {len(self.nodes)} nodes, "
            f"{len(self.links)} links)"
        )


def reachable(start: str, neighbours: Callable[[str], Iterable[str]]) -> Set[str]:
    """Every node a walk from ``start`` reaches (``start`` included)."""
    seen = {start}
    frontier = [start]
    while frontier:
        for peer in neighbours(frontier.pop()):
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return seen
