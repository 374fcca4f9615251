"""Batch all-origins SPF over a compact graph (numpy-vectorized).

The event-driven protocol computes each router's SPF separately — the
right model for convergence dynamics, but a k=32 fat tree needs 1280
route tables just to *start* converged, and 1280 sequential Dijkstras in
Python is what caps the packet backend at k≈8.  This module computes
every origin's route table in one shot:

* the two-way graph comes from the LSDB fingerprint (indexed once via
  :func:`repro.routing.spf_incremental.graph_info`) and is flattened to
  a :class:`~repro.topology.compact.CompactGraph`;
* all-pairs unit-cost distances are computed by synchronized frontier
  expansion — one boolean matrix product per BFS level — so the whole
  fabric's reachability costs a handful of BLAS calls;
* ECMP first-hop sets fall out of the distance matrix
  (``n ∈ hops(s, v)  ⇔  dist(n, v) + 1 == dist(s, v)`` for neighbors
  ``n`` of ``s``) and are packed as per-origin neighbor bitmasks, so
  equal sets share one tuple.

Every result is **provably equal** to the from-scratch oracle
:func:`repro.routing.spf.compute_routes` per origin — the differential
suite in ``tests/test_spf_batch.py`` pins that equality across all four
topology families, with and without numpy.  Without numpy the module
degrades to the per-origin oracle (correct, just not fast), so nothing
here makes numpy a hard dependency.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..net.ip import Prefix
from ..topology.compact import CompactGraph
from .lsdb import Lsdb
from .spf import RouteTable, compute_routes
from .spf_incremental import graph_info

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via engine="python"
    _np = None  # type: ignore[assignment]

#: engine choices for the public entry points
ENGINES = ("auto", "numpy", "python")


def have_numpy() -> bool:
    """Whether the vectorized engine is available."""
    return _np is not None


def _resolve_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown batch-SPF engine {engine!r}")
    if engine == "auto":
        return "numpy" if have_numpy() else "python"
    if engine == "numpy" and not have_numpy():
        raise RuntimeError("numpy engine requested but numpy is unavailable")
    return engine


def _distance_matrix(graph: CompactGraph) -> Any:
    """All-pairs unit-cost distances (-1 = unreachable), shape (V, V).

    Synchronized BFS: the level-``d`` frontier of every source advances
    in one boolean matrix product per level, so the loop runs
    ``diameter`` times regardless of fabric size.
    """
    assert _np is not None
    n = len(graph)
    adjacency = _np.zeros((n, n), dtype=_np.float32)
    indptr = _np.asarray(graph.indptr, dtype=_np.int64)
    indices = _np.asarray(graph.indices, dtype=_np.int64)
    rows = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(indptr))
    adjacency[rows, indices] = 1.0
    dist = _np.full((n, n), -1, dtype=_np.int32)
    reached = _np.eye(n, dtype=bool)
    frontier = _np.eye(n, dtype=_np.float32)
    dist[_np.arange(n), _np.arange(n)] = 0
    level = 0
    while True:
        advanced = (frontier @ adjacency) > 0
        advanced &= ~reached
        if not advanced.any():
            return dist
        level += 1
        dist[advanced] = level
        reached |= advanced
        frontier = advanced.astype(_np.float32)


def _origin_rows(
    graph: CompactGraph, dist: Any
) -> Iterator[Tuple[int, Tuple[str, ...], List[int], List[int]]]:
    """Per-origin ``(index, neighbor names, dist row, first-hop bitmasks)``.

    ``bits[t]`` has bit ``i`` set when the origin's ``i``-th (sorted)
    neighbor lies on a shortest path to node ``t`` — the packed form of
    the ECMP first-hop set.
    """
    assert _np is not None
    n = len(graph)
    for s in range(n):
        nbrs = _np.asarray(graph.neighbors(s), dtype=_np.int64)
        row = dist[s]
        if nbrs.size:
            mask = dist[nbrs] + 1 == row[None, :]
            shifts = _np.arange(nbrs.size, dtype=_np.int64)
            bits = (
                mask.astype(_np.int64) << shifts[:, None]
            ).sum(axis=0, dtype=_np.int64)
            bits_list = [int(b) for b in bits.tolist()]
        else:
            bits_list = [0] * n
        nbr_names = tuple(graph.names[int(i)] for i in nbrs.tolist())
        yield s, nbr_names, [int(d) for d in row.tolist()], bits_list


def _unpack(
    bits: int, nbr_names: Tuple[str, ...], memo: Dict[int, Tuple[str, ...]]
) -> Tuple[str, ...]:
    """Bitmask -> sorted next-hop name tuple (memoized per origin)."""
    hops = memo.get(bits)
    if hops is None:
        # neighbor indices ascend with names, so index order is sorted
        hops = tuple(
            name for i, name in enumerate(nbr_names) if bits >> i & 1
        )
        memo[bits] = hops
    return hops


def _aggregate(
    origin_index: int,
    origin_name: str,
    nbr_names: Tuple[str, ...],
    dist_row: List[int],
    bits_row: List[int],
    own_prefixes: frozenset,
    adv_by_prefix: Dict[Prefix, List[int]],
    memo: Dict[int, Tuple[str, ...]],
) -> RouteTable:
    """Prefix aggregation over one origin's packed reachability — the
    exact fold of :func:`repro.routing.spf.aggregate_routes`: nearest
    advertiser wins, ties union their hop sets, own prefixes excluded."""
    table: RouteTable = {}
    for prefix, advertisers in adv_by_prefix.items():
        if prefix in own_prefixes:
            continue
        best_d: Optional[int] = None
        best_bits = 0
        for adv in advertisers:
            if adv == origin_index:
                continue
            d = dist_row[adv]
            if d < 0:
                continue
            bits = bits_row[adv]
            if not bits:
                continue
            if best_d is None or d < best_d:
                best_d, best_bits = d, bits
            elif d == best_d:
                best_bits |= bits
        if best_d is None:
            continue
        table[prefix] = _unpack(best_bits, nbr_names, memo)
    return table


def _advertisers(
    graph: CompactGraph, prefixes: Dict[str, Tuple[Prefix, ...]]
) -> Dict[Prefix, List[int]]:
    adv_by_prefix: Dict[Prefix, List[int]] = {}
    for index, name in enumerate(graph.names):
        for prefix in prefixes.get(name, ()):
            adv_by_prefix.setdefault(prefix, []).append(index)
    return adv_by_prefix


def batch_compute_routes(
    lsdb: Lsdb, engine: str = "auto"
) -> Dict[str, RouteTable]:
    """Route tables for *every* origin of ``lsdb`` in one computation.

    Equal to ``{origin: compute_routes(origin, lsdb)}`` by construction
    (and by the differential suite); the numpy engine computes it in a
    few vectorized passes instead of one Dijkstra per origin.
    """
    resolved = _resolve_engine(engine)
    fingerprint = lsdb.fingerprint()
    info = graph_info(fingerprint)
    if resolved == "python":
        return {
            origin: compute_routes(origin, lsdb)
            for origin in sorted(info.adjacency)
        }
    graph = CompactGraph.from_adjacency(info.adjacency)
    dist = _distance_matrix(graph)
    adv_by_prefix = _advertisers(graph, info.prefixes)
    result: Dict[str, RouteTable] = {}
    for s, nbr_names, dist_row, bits_row in _origin_rows(graph, dist):
        origin = graph.names[s]
        own = frozenset(info.prefixes.get(origin, ()))
        memo: Dict[int, Tuple[str, ...]] = {}
        result[origin] = _aggregate(
            s, origin, nbr_names, dist_row, bits_row, own, adv_by_prefix, memo
        )
    return result
