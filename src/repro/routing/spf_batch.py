"""Batch all-origins SPF over a compact graph (numpy-vectorized).

The event-driven protocol computes each router's SPF separately — the
right model for convergence dynamics, but a k=32 fat tree needs 1280
route tables just to *start* converged, and 1280 sequential Dijkstras in
Python is what caps the packet backend at k≈8.  This module computes
every origin's route table in one shot, with no interpreted step per
(origin, prefix):

* the two-way graph comes from the LSDB fingerprint (indexed once via
  :func:`repro.routing.lsdb.graph_info`) and is flattened to
  a :class:`~repro.topology.compact.CompactGraph`;
* one synchronized BFS runs from every advertised *prefix* at once —
  all advertisers of a prefix start at distance 0 — over frontiers
  bit-packed into 64-bit words on the CSR arrays: a level is one gather
  of the neighbor rows and one ``bitwise_or.reduceat``, E·P/64 words of
  work.  The result is each node's distance to the nearest advertiser,
  which is the whole of prefix aggregation (nearest advertiser wins,
  ties merge, an own prefix sits at distance 0 and gets no route);
* ECMP first-hop sets fall out of the distances
  (``n ∈ hops(s, p)  ⇔  dist(n, p) + 1 == dist(s, p)`` for neighbors
  ``n`` of ``s``) and are packed as per-origin neighbor bitmasks, one
  array pass per neighbor position, so equal sets share one tuple;
* prefix columns are numbered in sorted order, so a table is born in
  FIB install order and is a pure function of (columns, neighbor names,
  bitmask row): origins that agree on all three — the cores of one
  group, one origin before and after a fault elsewhere (see
  :data:`TableMemo`) — get the *same* object.  A table is immutable once
  returned, here as from every SPF engine.

A bitmask is one int64, so an origin with more than 63 two-way neighbors
(a spine over 64+ leaves) is answered by the per-origin oracle instead.

Every result is **provably equal** to the from-scratch oracle
:func:`repro.routing.spf.compute_routes` per origin — the differential
suite in ``tests/test_spf_batch.py`` pins that equality across all four
topology families and over randomly damaged LSDBs.  numpy is a declared
dependency: there is no pure-python fallback to degrade to, and a
caller that wants the per-origin loop writes it (the tests do).
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..net.ip import Prefix
from ..topology.compact import CompactGraph
from .lsdb import Lsdb, graph_info
from .spf import RouteTable, compute_routes

#: neighbor positions one int64 first-hop bitmask can hold
_MASK_BITS = 63

#: one run's tables by what determines them under one column list —
#: ``(neighbor names, bitmask-row bytes)``: equal bytes under other
#: neighbors are another table — and the memo a caller keeps between
#: runs, ``{prefix columns: tables}`` of the last run only
_Tables = Dict[Tuple[Tuple[str, ...], bytes], RouteTable]
TableMemo = Dict[Tuple[Prefix, ...], _Tables]


def have_numpy() -> bool:
    """Always True: numpy is a declared dependency.  Kept only while
    ``perfbench/child.py`` calls it; ``tests/test_perfbench_targets.py``
    says "delete" the day it stops."""
    return True


def _nearest_distances(graph: CompactGraph, advertised: Any) -> Any:
    """``dist[v, p]``: hops from node ``v`` to the nearest node with
    ``advertised[:, p]`` set (-1 = none reachable), shape (V, P).

    Row ``v`` of the level-``d`` frontier is the bitset of prefixes at
    distance ``d`` from ``v``, packed into 64-bit words; the graph is
    undirected, so the next level is the OR of each node's neighbor
    rows.  Degree-0 rows stay out of the ``reduceat`` (it mis-reads
    empty segments) and never advance.
    """
    indptr = np.asarray(graph.indptr)
    indices = np.asarray(graph.indices)
    linked = np.flatnonzero(np.diff(indptr))
    starts = indptr[linked]
    n_prefixes = advertised.shape[1]
    dist = advertised.astype(np.int32) - 1
    whole_words = np.pad(advertised, ((0, 0), (0, -n_prefixes % 64)))
    frontier = np.packbits(whole_words, axis=1).view(np.uint64)
    reached = frontier.copy()
    level = 0
    while linked.size and frontier.any():
        level += 1
        advanced = np.zeros_like(frontier)
        advanced[linked] = np.bitwise_or.reduceat(
            frontier[indices], starts, axis=0
        )
        advanced &= ~reached
        reached |= advanced
        fresh = np.unpackbits(
            advanced.view(np.uint8), axis=1, count=n_prefixes
        )
        dist[fresh.view(bool)] = level
        frontier = advanced
    return dist


def _first_hop_bits(graph: CompactGraph, dist: Any) -> Any:
    """``bits[s, p]`` has bit ``i`` set when origin ``s``'s ``i``-th
    (sorted) neighbor lies on a shortest path toward prefix ``p`` — the
    packed ECMP first-hop set; 0 where ``s`` has no route (unreachable,
    or its own prefix).  Positions past :data:`_MASK_BITS` are dropped.
    """
    indptr = np.asarray(graph.indptr)
    indices = np.asarray(graph.indices)
    degree = np.diff(indptr)
    one_closer = dist - 1
    bits = np.zeros(dist.shape, dtype=np.int64)
    for i in range(min(int(degree.max(initial=0)), _MASK_BITS)):
        origins = np.flatnonzero(degree > i)
        on_path = dist[indices[indptr[origins] + i]] == one_closer[origins]
        bits[origins] |= np.left_shift(on_path, i, dtype=np.int64)
    return bits


def _route_table(
    bits_row: Any, prefixes: Tuple[Prefix, ...], nbr_names: Tuple[str, ...]
) -> RouteTable:
    """One origin's table from its bitmask row: the hop tuple of each
    distinct mask is built once and shared by every prefix that has it."""
    row = bits_row.tolist()
    # neighbor indices ascend with names, so index order is sorted
    hops = {
        mask: tuple(name for i, name in enumerate(nbr_names) if mask >> i & 1)
        for mask in sorted(set(row))
    }
    # a zero mask is "no route": compress/filter drop those prefixes
    return dict(zip(
        compress(prefixes, row), map(hops.__getitem__, filter(None, row))
    ))


def batch_compute_routes(
    lsdb: Lsdb, memo: Optional[TableMemo] = None
) -> Dict[str, RouteTable]:
    """Route tables for *every* origin of ``lsdb`` in one computation.

    Equal to ``{origin: compute_routes(origin, lsdb)}`` by construction
    (and by the differential suite), computed in a few vectorized passes
    instead of one Dijkstra per origin.  Given the ``memo`` of the
    previous run, an origin whose table did not change gets the same
    object back (the per-origin paths never share).
    """
    info = graph_info(lsdb.fingerprint())
    graph = CompactGraph.from_adjacency(info.adjacency)
    prefixes = tuple(sorted(info.advertisers))
    column = {prefix: i for i, prefix in enumerate(prefixes)}
    nodes: List[int] = []
    columns: List[int] = []
    for node, name in enumerate(graph.names):
        for prefix in info.prefixes[name]:
            nodes.append(node)
            columns.append(column[prefix])
    advertised = np.zeros((len(graph), len(column)), dtype=bool)
    advertised[nodes, columns] = True
    bits = _first_hop_bits(graph, _nearest_distances(graph, advertised))
    lent = {} if memo is None else memo.pop(prefixes, {})
    tables: _Tables = {}
    result: Dict[str, RouteTable] = {}
    for s, origin in enumerate(graph.names):
        if graph.degree(s) > _MASK_BITS:
            result[origin] = compute_routes(origin, lsdb)
            continue
        # adjacency rows are sorted, like the neighbor positions
        key = (info.adjacency[origin], bits[s].tobytes())
        table = tables.get(key, lent.get(key))
        if table is None:
            table = _route_table(bits[s], prefixes, key[0])
        result[origin] = tables[key] = table
    if memo is not None:
        memo.clear()
        memo[prefixes] = tables
    return result
