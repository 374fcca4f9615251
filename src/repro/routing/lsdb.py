"""Link-state advertisements and the link-state database.

Each router originates one LSA describing its live switch adjacencies and
its attached ("stub") prefixes — a ToR's host subnet, plus the router's /32
loopback.  Sequence numbers provide freshness, exactly like OSPF router
LSAs (we skip aging/MaxAge: simulated experiments are shorter than any
refresh interval).  :meth:`Lsdb.fingerprint` digests a database's
routing-relevant content and :func:`graph_info` indexes that digest (the
two-way graph, who advertises what) for whoever diffs or flattens it.

A database is a shared, never-mutated *base* read through its own
*overlay*: a warm-started fabric holds one base, not V copies of V LSAs,
and a flood writes only the LSAs in flight into each overlay.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..net.ip import Prefix

#: an undirected two-way edge, endpoints sorted
Edge = Tuple[str, str]

#: one origin's routing-relevant content: ``(origin, neighbors, prefixes)``
Entry = Tuple[str, Tuple[str, ...], Tuple[Prefix, ...]]

#: a fingerprint's hash is the sum of its entries' hashes modulo 2**64
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Lsa:
    """One router's link-state advertisement."""

    origin: str
    seq: int
    neighbors: Tuple[str, ...]
    prefixes: Tuple[Prefix, ...]


def _entry_hash(lsa: Lsa) -> int:
    return hash((lsa.origin, lsa.neighbors, lsa.prefixes))


class _Base(Dict[str, Lsa]):
    """origin -> LSA, shared by every database loaded from one reference
    and never mutated once built."""

    __slots__ = ("content_hash", "_sorted")

    def __init__(self, lsas: Iterable[Lsa] = (), content_hash: int = 0) -> None:
        super().__init__((lsa.origin, lsa) for lsa in lsas)
        self.content_hash = content_hash
        #: the sorted entries, built on the first cross-base comparison
        self._sorted: Optional[Tuple[Entry, ...]] = None

    def sorted_entries(self) -> Tuple[Entry, ...]:
        entries = self._sorted
        if entries is None:
            entries = self._sorted = tuple(sorted(
                (origin, lsa.neighbors, lsa.prefixes) for origin, lsa in self.items()
            ))
        return entries

    def same_content(self, other: "_Base") -> bool:
        """Whether both bases hold the same routing-relevant content:
        decided by a full comparison once per pair of equal bases, which
        then share one sorted tuple, so later calls are identity checks."""
        if self is other:
            return True
        if self.content_hash != other.content_hash:
            return False
        mine, theirs = self.sorted_entries(), other.sorted_entries()
        if mine is theirs:
            return True
        if mine != theirs:
            return False
        other._sorted = mine
        return True


_EMPTY = _Base()


class Fingerprint:
    """The hashable digest :meth:`Lsdb.fingerprint` returns: a base plus
    the sorted entries whose content differs from it.

    Equal exactly when the sorted entries are, whatever the bases.  The
    differences from a base are canonical for its content, so views of
    one base — or of two bases with the same content, as two trials'
    warm starts of one fabric are — compare only their differences;
    views of two different bases compare their full content.  The hash,
    a sum of entry hashes, depends on content alone.  Iteration yields
    the sorted entries.
    """

    __slots__ = ("_base", "_diff", "_hash")

    def __init__(self, base: _Base, diff: Tuple[Entry, ...], content_hash: int) -> None:
        self._base = base
        self._diff = diff
        content_hash &= _MASK
        # as a signed word, which ``hash()`` passes through unchanged
        self._hash = content_hash - (content_hash >> 63 << 64)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fingerprint):
            return NotImplemented
        if self._hash != other._hash:
            return False
        if self._base.same_content(other._base):
            return self._diff == other._diff
        return tuple(self) == tuple(other)

    def __iter__(self) -> Iterator[Entry]:
        changed = {entry[0]: entry for entry in self._diff}
        entries = [
            changed.pop(origin, None) or (origin, lsa.neighbors, lsa.prefixes)
            for origin, lsa in self._base.items()
        ]
        entries.extend(changed.values())  # origins the base lacks
        entries.sort()
        return iter(entries)

    def __reduce__(self) -> Tuple[Any, ...]:
        # content only: str hashes differ between interpreter processes,
        # so a pickled hash would poison lookups in the one that loads it
        return (_content_fingerprint, (tuple(self),))


def _content_fingerprint(entries: Tuple[Entry, ...]) -> Fingerprint:
    """The fingerprint of sorted ``entries`` over the empty base."""
    return Fingerprint(_EMPTY, entries, sum(map(hash, entries)))


class Lsdb:
    """The per-router link-state database (see module doc)."""

    def __init__(self) -> None:
        self._base = _EMPTY
        #: LSAs stored since the base was loaded
        self._overlay: Dict[str, Lsa] = {}
        #: origin -> entry, for every origin whose content the base lacks
        self._diff: Dict[str, Entry] = {}
        #: the content hash, patched by every stored content change
        self._hash = 0
        self._fingerprint: Optional[Fingerprint] = None

    def __len__(self) -> int:
        return len(self._base) + sum(o not in self._base for o in self._overlay)

    def get(self, origin: str) -> Optional[Lsa]:
        # an Lsa is always truthy
        return self._overlay.get(origin) or self._base.get(origin)

    def insert(self, lsa: Lsa) -> bool:
        """Store ``lsa`` in the overlay if it is fresher; returns True
        when stored.

        A content change patches the hash and the differences from the
        base in O(1) and drops the materialized fingerprint; a seq-only
        refresh leaves the fingerprint object untouched, preserving the
        cache-hit behaviour the docstring of :meth:`fingerprint` pins.
        """
        origin = lsa.origin
        old = self._overlay.get(origin) or self._base.get(origin)
        if old is not None and lsa.seq <= old.seq:
            return False  # freshness: only a higher sequence number wins
        self._overlay[origin] = lsa
        entry = (origin, lsa.neighbors, lsa.prefixes)
        if old is not None and (origin, old.neighbors, old.prefixes) == entry:
            return True
        patch = _entry_hash(lsa) - (0 if old is None else _entry_hash(old))
        self._hash = (self._hash + patch) & _MASK
        was = self._base.get(origin)
        if was is not None and (origin, was.neighbors, was.prefixes) == entry:
            del self._diff[origin]  # back to the base content
        else:
            self._diff[origin] = entry
        self._fingerprint = None
        return True

    def load(self, reference: "Lsdb") -> None:
        """Become a view of ``reference`` (only an empty database loads):
        the first load freezes its LSAs into a base, and every database
        loaded from it shares that base and its fingerprint object."""
        if self._overlay or self._base:
            raise ValueError("Lsdb.load needs an empty database")
        if reference._overlay:
            reference._base = _Base(reference.all(), reference._hash)
            reference._overlay, reference._diff = {}, {}
            reference._fingerprint = None
        self._base = reference._base
        self._hash = reference._hash
        self._fingerprint = reference.fingerprint()

    def fingerprint(self) -> Fingerprint:
        """A hashable digest of the *routing-relevant* content.

        SPF (:func:`repro.routing.spf.compute_routes`) reads only each
        LSA's neighbors and prefixes — never its sequence number — so the
        fingerprint deliberately omits ``seq``.  Two databases with equal
        fingerprints yield identical route tables for every origin, which
        is what lets the SPF cache share results across seq-only
        refreshes, switches, and trials.  Built on first use after a
        content change, in O(Δ) for Δ entries that differ from the base;
        a seq-only refresh keeps the object, so downstream caches hit.
        """
        fp = self._fingerprint
        if fp is None:
            fp = self._fingerprint = Fingerprint(
                self._base, tuple(sorted(self._diff.values())), self._hash
            )
        return fp

    def all(self) -> Iterator[Lsa]:
        """Every LSA: the base's order with the overlay's substitutions,
        then the origins the base lacks, in insertion order."""
        overlay, base = self._overlay, self._base
        for origin, lsa in base.items():
            yield overlay.get(origin, lsa)
        for origin, lsa in overlay.items():
            if origin not in base:
                yield lsa

    def two_way_neighbors(self, origin: str) -> Iterator[str]:
        """Neighbors of ``origin`` confirmed in *both* directions.

        OSPF only uses a link in SPF when both endpoints advertise it; this
        is what prevents half-learned failures from creating phantom links.
        """
        overlay, base = self._overlay, self._base
        own = overlay.get(origin) or base.get(origin)
        if own is None:
            return
        for peer in own.neighbors:
            peer_lsa = overlay.get(peer) or base.get(peer)
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
