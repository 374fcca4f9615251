"""Link-state advertisements and the link-state database.

Each router originates one LSA describing its live switch adjacencies and
its attached ("stub") prefixes — a ToR's host subnet, plus the router's /32
loopback.  Sequence numbers provide freshness, exactly like OSPF router
LSAs (we skip aging/MaxAge: simulated experiments are shorter than any
refresh interval).  :meth:`Lsdb.fingerprint` digests a database's
routing-relevant content and :func:`graph_info` indexes that digest (the
two-way graph, who advertises what) for whoever diffs or flattens it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..net.ip import Prefix

#: the hashable digest produced by :meth:`Lsdb.fingerprint`
Fingerprint = Tuple[Any, ...]

#: an undirected two-way edge, endpoints sorted
Edge = Tuple[str, str]


@dataclass(frozen=True)
class Lsa:
    """One router's link-state advertisement."""

    origin: str
    seq: int
    neighbors: Tuple[str, ...]
    prefixes: Tuple[Prefix, ...]


class _HashOnceTuple(tuple[Any, ...]):
    """The tuple :meth:`Lsdb.fingerprint` returns, hashing its content at
    most once.

    Equality and hash value are the plain tuple's, so it meets a
    hand-built tuple of the same content in any dict or set.  Tuples do
    not cache their hash, and every SPF run keys several lookups on the
    whole database — V entries, a Python-level ``Prefix.__hash__`` under
    each — so the value is kept after the first request.
    """

    _hash: int

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash

    def __reduce__(self) -> Tuple[Any, ...]:
        # content only: str hashes differ between interpreter processes,
        # so a pickled cache would poison lookups in the one that loads it
        return (type(self), (tuple(self),))


class Lsdb:
    """The per-router link-state database."""

    def __init__(self) -> None:
        self._by_origin: Dict[str, Lsa] = {}
        self._fingerprint: Optional[Fingerprint] = None

    def __len__(self) -> int:
        return len(self._by_origin)

    def get(self, origin: str) -> Optional[Lsa]:
        return self._by_origin.get(origin)

    def insert(self, lsa: Lsa) -> bool:
        """Store ``lsa`` if it is fresher; returns True when stored.

        When the fingerprint is already materialized it is patched in
        place (one bisect + tuple splice, O(V) pointer copies) instead
        of being invalidated — a post-failure flood otherwise makes
        every switch re-sort its whole database per received LSA, which
        at k=48 is the single largest reconvergence cost.  A seq-only
        refresh leaves the fingerprint object untouched, preserving the
        cache-hit behaviour the docstring of :meth:`fingerprint` pins.
        """
        old = self._by_origin.get(lsa.origin)
        if old is not None and lsa.seq <= old.seq:
            return False  # freshness: only a higher sequence number wins
        self._by_origin[lsa.origin] = lsa
        fp = self._fingerprint
        if fp is not None:
            entry = (lsa.origin, lsa.neighbors, lsa.prefixes)
            if old is not None and (old.neighbors, old.prefixes) == entry[1:]:
                return True
            # origins are unique, so ``(origin,)`` bisects to where this
            # origin's entry sits (or belongs): a replacement keeps its
            # position, and one splice both drops the stale entry and
            # pays for re-wrapping the result
            i = bisect_left(fp, (lsa.origin,))
            rest = fp[i:] if old is None else fp[i + 1:]
            self._fingerprint = _HashOnceTuple(fp[:i] + (entry,) + rest)
        return True

    def load(self, reference: "Lsdb") -> None:
        """Bulk-populate from a converged reference database.

        Semantically identical to inserting every LSA of ``reference`` in
        turn (LSAs are immutable, so sharing them across databases is
        safe), but an empty receiver takes the dict-copy fast path and
        inherits the reference's already-computed fingerprint — this is
        what collapses warm start's O(V²) per-switch insert loop into V
        dict copies, and keeps the batch-SPF oracle's fingerprint-keyed
        cache hot without V re-sorts.
        """
        if self._by_origin:
            for lsa in reference._by_origin.values():
                self.insert(lsa)
            return
        self._by_origin = dict(reference._by_origin)
        self._fingerprint = reference._fingerprint

    def fingerprint(self) -> Fingerprint:
        """A hashable digest of the *routing-relevant* content.

        SPF (:func:`repro.routing.spf.compute_routes`) reads only each
        LSA's neighbors and prefixes — never its sequence number — so the
        fingerprint deliberately omits ``seq``.  Two databases with equal
        fingerprints yield identical route tables for every origin, which
        is what lets the SPF cache share results across seq-only
        refreshes, switches, and trials.  Lazily computed on first use,
        then patched incrementally by :meth:`insert`; a seq-only refresh
        leaves the tuple untouched, so downstream caches still hit.
        """
        fp = self._fingerprint
        if fp is None:
            fp = _HashOnceTuple(sorted(
                (lsa.origin, lsa.neighbors, lsa.prefixes)
                for lsa in self._by_origin.values()
            ))
            self._fingerprint = fp
        return fp

    def all(self) -> Iterator[Lsa]:
        yield from self._by_origin.values()

    def two_way_neighbors(self, origin: str) -> Iterator[str]:
        """Neighbors of ``origin`` confirmed in *both* directions.

        OSPF only uses a link in SPF when both endpoints advertise it; this
        is what prevents half-learned failures from creating phantom links.
        """
        own = self._by_origin.get(origin)
        if own is None:
            return
        for peer in own.neighbors:
            peer_lsa = self._by_origin.get(peer)
            if peer_lsa is not None and origin in peer_lsa.neighbors:
                yield peer


@dataclass(frozen=True)
class GraphInfo:
    """Routing-relevant content of one fingerprint, indexed for diffing."""

    #: node -> sorted two-way neighbors (every origin is a key)
    adjacency: Dict[str, Tuple[str, ...]]
    #: node -> advertised prefixes
    prefixes: Dict[str, Tuple[Prefix, ...]]
    #: prefix -> sorted advertising origins
    advertisers: Dict[Prefix, Tuple[str, ...]]
    #: the two-way edge set
    edges: FrozenSet[Edge]


#: bounded memo for :func:`graph_info` — fingerprints repeat heavily
#: (every switch of a fabric shares the flooded database content)
_GRAPH_MEMO: "OrderedDict[Fingerprint, GraphInfo]" = OrderedDict()
_GRAPH_MEMO_MAX = 128


def graph_info(fingerprint: Fingerprint) -> GraphInfo:
    """Index one fingerprint's content (memoized)."""
    memo = _GRAPH_MEMO
    info = memo.get(fingerprint)
    if info is not None:
        memo.move_to_end(fingerprint)
        return info
    declared: Dict[str, Tuple[str, ...]] = {}
    prefixes: Dict[str, Tuple[Prefix, ...]] = {}
    for origin, neighbors, prefs in fingerprint:
        declared[origin] = neighbors
        prefixes[origin] = prefs
    adjacency: Dict[str, Tuple[str, ...]] = {}
    edges: List[Edge] = []
    for origin, neighbors, _prefs in fingerprint:
        two_way = tuple(sorted(
            {peer for peer in neighbors if origin in declared.get(peer, ())}
        ))
        adjacency[origin] = two_way
        for peer in two_way:
            if origin < peer:
                edges.append((origin, peer))
    advertisers: Dict[Prefix, List[str]] = {}
    for origin, _neighbors, prefs in fingerprint:
        for prefix in prefs:
            advertisers.setdefault(prefix, []).append(origin)
    info = GraphInfo(
        adjacency=adjacency,
        prefixes=prefixes,
        advertisers={
            prefix: tuple(sorted(origins))
            for prefix, origins in advertisers.items()
        },
        edges=frozenset(edges),
    )
    memo[fingerprint] = info
    if len(memo) > _GRAPH_MEMO_MAX:
        memo.popitem(last=False)
    return info
