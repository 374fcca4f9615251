"""Link-state advertisements and the link-state database.

Each router originates one LSA describing its live switch adjacencies and
its attached ("stub") prefixes — a ToR's host subnet, plus the router's /32
loopback.  Sequence numbers provide freshness, exactly like OSPF router
LSAs (we skip aging/MaxAge: simulated experiments are shorter than any
refresh interval).  :meth:`Lsdb.fingerprint` digests a database's
routing-relevant content; :meth:`Fingerprint.changes_to` reads where two
digests differ, and :func:`graph_info` indexes one digest (the two-way
graph, who advertises what) for the batch kernel to flatten.

A database is a shared, never-mutated *base* read through its own
*overlay*: a warm-started fabric holds one base, not V copies of V LSAs,
and a flood writes only the LSAs in flight into each overlay.  Nothing
here outlives the databases of one trial: no index is memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..net.ip import Prefix

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

    __slots__ = ()

    def __init__(self, lsas: Iterable[Lsa] = ()) -> None:
        super().__init__((lsa.origin, lsa) for lsa in lsas)


_EMPTY = _Base()


class Fingerprint:
    """The hashable digest :meth:`Lsdb.fingerprint` returns: a base plus
    the sorted entries whose content differs from it.

    Equal exactly when the sorted entries are, whatever the bases.  The
    differences from a base are canonical for its content, so views of
    one base compare only their differences; views of two different
    bases compare their full content.  The hash, a sum of entry hashes,
    depends on content alone.  Iteration yields the sorted entries.
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
        if self._base is other._base:
            return self._diff == other._diff
        return tuple(self) == tuple(other)

    def changes_to(
        self, other: "Fingerprint"
    ) -> Tuple[Set[str], Callable[[str], Optional[Entry]], Callable[[str], Optional[Entry]]]:
        """Where ``other`` differs from this digest: the origins whose
        entries differ (present on one side only included), and an entry
        lookup for each side (None: that side lacks the origin).

        Over one base only the two sets of differences are read, so the
        cost is O(Δ); over two bases the full contents are.
        """
        base = self._base
        if base is other._base:
            mine = {entry[0]: entry for entry in self._diff}
            theirs = {entry[0]: entry for entry in other._diff}
        else:
            base = _EMPTY
            mine = {entry[0]: entry for entry in self}
            theirs = {entry[0]: entry for entry in other}
        changed = {
            origin for origin, entry in mine.items() if theirs.get(origin) != entry
        }
        changed.update(theirs.keys() - mine.keys())
        return changed, _lookup(mine, base), _lookup(theirs, base)

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


def _lookup(
    changed: Dict[str, Entry], base: _Base
) -> Callable[[str], Optional[Entry]]:
    """origin -> entry over ``base`` with ``changed`` substituted."""

    def entry(origin: str) -> Optional[Entry]:
        found = changed.get(origin)
        if found is None:
            lsa = base.get(origin)
            if lsa is not None:
                found = (origin, lsa.neighbors, lsa.prefixes)
        return found

    return entry


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
            reference._base = _Base(reference.all())
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
        is what lets an SPF engine reuse a table across seq-only
        refreshes and flaps that return to earlier content.  Built on
        first use after a content change, in O(Δ) for Δ entries that
        differ from the base; a seq-only refresh keeps the object, so
        downstream caches hit.
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
    """Routing-relevant content of one fingerprint, indexed for the batch
    kernel."""

    #: node -> sorted two-way neighbors (every origin is a key)
    adjacency: Dict[str, Tuple[str, ...]]
    #: node -> advertised prefixes
    prefixes: Dict[str, Tuple[Prefix, ...]]
    #: prefix -> sorted advertising origins
    advertisers: Dict[Prefix, Tuple[str, ...]]


def graph_info(fingerprint: Fingerprint) -> GraphInfo:
    """Index one fingerprint's content."""
    declared: Dict[str, Tuple[str, ...]] = {}
    prefixes: Dict[str, Tuple[Prefix, ...]] = {}
    for origin, neighbors, prefs in fingerprint:
        declared[origin] = neighbors
        prefixes[origin] = prefs
    adjacency = {
        origin: tuple(sorted(
            {peer for peer in neighbors if origin in declared.get(peer, ())}
        ))
        for origin, neighbors in declared.items()
    }
    advertisers: Dict[Prefix, List[str]] = {}
    for origin, prefs in prefixes.items():
        for prefix in prefs:
            advertisers.setdefault(prefix, []).append(origin)
    return GraphInfo(
        adjacency=adjacency,
        prefixes=prefixes,
        advertisers={
            prefix: tuple(sorted(origins))
            for prefix, origins in advertisers.items()
        },
    )
