"""Shortest-path-first computation with ECMP.

Dijkstra over the two-way-connected LSDB graph with unit link costs (the
paper's footnote 4: every DCN link has the same cost).  For every
destination we keep the **set of first hops** across all equal-cost
shortest paths — that set is what ECMP hashes over (§II-A), and its
"eliminate the failed member" behaviour is realised later by the data
plane's live-next-hop pruning.

The computation is two passes:

* :func:`dijkstra` — the reachability pass: per-node distance and
  ECMP first-hop set from the origin;
* :func:`aggregate_routes` — the prefix pass: fold advertised prefixes
  over the reachability maps (nearest advertiser wins, equal distances
  merge their next hops).

:func:`compute_routes` is their composition and remains the from-scratch
oracle the memo and the batch kernel are differentially tested against.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Tuple

from ..net.ip import Prefix
from .lsdb import Lsa, Lsdb

#: destination prefix -> ordered next-hop switch names
RouteTable = Dict[Prefix, Tuple[str, ...]]

#: node -> hop count from the origin (reachable nodes only)
DistanceMap = Dict[str, int]

#: node -> ECMP first-hop set from the origin (empty for the origin)
FirstHopMap = Dict[str, frozenset]


def dijkstra(origin: str, lsdb: Lsdb) -> Tuple[DistanceMap, FirstHopMap]:
    """Unit-cost Dijkstra over the two-way graph, tracking ECMP first hops.

    Returns ``(dist, first_hops)`` over every node reachable from
    ``origin`` (including the origin itself, at distance 0 with an empty
    first-hop set).
    """
    dist: DistanceMap = {origin: 0}
    first_hops: FirstHopMap = {origin: frozenset()}
    heap: list[tuple[int, str]] = [(0, origin)]
    visited: set[str] = set()

    while heap:
        d, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        for v in lsdb.two_way_neighbors(u):
            nd = d + 1
            if u == origin:
                hops: frozenset = frozenset((v,))
            else:
                hops = first_hops[u]
            known = dist.get(v)
            if known is None or nd < known:
                dist[v] = nd
                first_hops[v] = hops
                heapq.heappush(heap, (nd, v))
            elif nd == known:
                merged = first_hops[v] | hops
                if merged != first_hops[v]:
                    first_hops[v] = merged
                    # same distance: no need to re-push, neighbours of v will
                    # re-read first_hops[v] only if v is not yet visited
                    if v not in visited:
                        heapq.heappush(heap, (nd, v))

    return dist, first_hops


def aggregate_routes(
    origin: str,
    own_prefixes: frozenset,
    advertisements: Iterable[Lsa],
    dist: DistanceMap,
    first_hops: FirstHopMap,
) -> RouteTable:
    """Fold advertised prefixes over the reachability maps.

    Prefixes advertised by ``origin`` itself are excluded (they are
    connected, not routed).  When several routers advertise the same
    prefix (anycast-style), the nearest wins and equal distances merge
    their next hops.
    """
    best: Dict[Prefix, tuple[int, frozenset]] = {}
    for lsa in advertisements:
        if lsa.origin == origin or lsa.origin not in dist:
            continue
        d = dist[lsa.origin]
        hops = first_hops[lsa.origin]
        if not hops:
            continue
        for prefix in lsa.prefixes:
            if prefix in own_prefixes:
                continue
            current = best.get(prefix)
            if current is None or d < current[0]:
                best[prefix] = (d, hops)
            elif d == current[0]:
                best[prefix] = (d, current[1] | hops)

    return {prefix: tuple(sorted(hops)) for prefix, (d, hops) in best.items()}


def compute_routes(origin: str, lsdb: Lsdb) -> RouteTable:
    """All-prefix ECMP routes from ``origin``'s point of view.

    The from-scratch oracle: a full :func:`dijkstra` pass followed by
    :func:`aggregate_routes` over every LSA.
    """
    own = lsdb.get(origin)
    if own is None:
        return {}
    dist, first_hops = dijkstra(origin, lsdb)
    return aggregate_routes(
        origin, frozenset(own.prefixes), lsdb.all(), dist, first_hops
    )
