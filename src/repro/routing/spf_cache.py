"""Per-origin SPF behind an (origin, fingerprint) memo, and the engine a
link-state instance computes with.

:func:`repro.routing.spf.compute_routes` is a pure function of the
two-way neighbor graph plus advertised prefixes — LSA sequence numbers
never influence the result.  :meth:`repro.routing.lsdb.Lsdb.fingerprint`
digests exactly that routing-relevant content, so ``(origin,
fingerprint)`` is a sound memo key: equal keys provably yield equal
route tables.  A miss is one from-scratch Dijkstra; nothing is patched.

Three consumers ask one origin at a time and share the memo:

* the distributed protocol (:mod:`repro.routing.linkstate`) — through
  its per-instance :class:`SpfEngine`, so an A→B→A flap and every trial
  after the first of a campaign chunk find their tables already there;
* the centralized controller (:mod:`repro.routing.centralized`);
* the convergence-agreement invariant (:mod:`repro.check.invariants`) —
  on purpose: on a fluid trial the protocol computes through the batch
  kernel (:mod:`repro.routing.spf_batch`), and this is the only route
  computer that is not the one under test.

Whoever wants every origin of one database at once asks the batch
kernel instead; the two are each other's differential oracle
(``tests/test_spf_incremental.py``, ``tests/test_spf_batch.py``).

Determinism is unaffected by construction: a hit returns a dict *equal*
to what :func:`compute_routes` would return (nobody mutates a route
table an engine has returned, the engine included: the protocol holds
this very object as its download).  Eviction is LRU over a
deterministic access sequence, hence itself deterministic.  The memo is
per-process; campaign workers warm it across the trials of their chunk,
and the 1-vs-N-worker byte-identity tests pin that sharing changes
nothing observable.

The transition taxonomy (:func:`classify_transition`) is what every
``spf.run`` trace record and ``spf`` span leaf carries as ``delta``: a
pure function of one consumer's fingerprint sequence, classified by the
protocol before any engine runs, so independent of how — or whether —
anything was computed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from .lsdb import Edge, Fingerprint, Lsdb, graph_info
from .spf import RouteTable, compute_routes

# ------------------------------------------------------- delta taxonomy

#: first computation for this consumer (no previous fingerprint)
INITIAL = "initial"
#: fingerprint unchanged (seq-only LSA refresh)
REFRESH = "refresh"
#: fingerprints differ but the two-way graph and prefixes are identical
#: (a half-learned failure: only one endpoint re-originated so far)
COSMETIC = "cosmetic"
#: exactly one two-way edge disappeared
LINK_DOWN = "link-down"
#: exactly one two-way edge appeared
LINK_UP = "link-up"
#: anything else (multi-edge batch, origin/prefix changes)
STRUCTURAL = "structural"


@dataclass(frozen=True)
class SpfDelta:
    """Classification of one fingerprint transition."""

    kind: str
    edge: Optional[Edge] = None


#: bounded memo for :func:`classify_transition` — all origins of a fabric
#: see the same (old, new) fingerprint pair after one topology event
_DELTA_MEMO: "OrderedDict[Tuple[Fingerprint, Fingerprint], SpfDelta]" = OrderedDict()
_DELTA_MEMO_MAX = 256


def classify_transition(
    old_fp: Optional[Fingerprint], new_fp: Fingerprint
) -> SpfDelta:
    """Classify the transition between two fingerprints (memoized);
    ``old_fp`` None is a consumer's first computation."""
    if old_fp is None:
        return SpfDelta(INITIAL)
    if old_fp == new_fp:
        return SpfDelta(REFRESH)
    memo = _DELTA_MEMO
    key = (old_fp, new_fp)
    delta = memo.get(key)
    if delta is not None:
        memo.move_to_end(key)
        return delta
    old_info = graph_info(old_fp)
    new_info = graph_info(new_fp)
    if old_info.prefixes != new_info.prefixes:
        # origin set or advertised prefixes changed
        delta = SpfDelta(STRUCTURAL)
    else:
        diff = old_info.edges ^ new_info.edges
        if not diff:
            delta = SpfDelta(COSMETIC)
        elif len(diff) == 1:
            edge = next(iter(diff))
            kind = LINK_UP if edge in new_info.edges else LINK_DOWN
            delta = SpfDelta(kind, edge)
        else:
            delta = SpfDelta(STRUCTURAL)
    memo[key] = delta
    if len(memo) > _DELTA_MEMO_MAX:
        memo.popitem(last=False)
    return delta


# ----------------------------------------------------------------- memo

#: default bound: a 40-switch grid trial needs ~40 entries per distinct
#: surviving graph; 4096 covers the trials of one campaign chunk
_MAX_ENTRIES = 4096

_Key = Tuple[str, tuple]


class SpfCacheStats:
    """Deterministic *logical* hit/miss accounting for one consumer.

    The shared cache's physical ``hits``/``misses`` depend on process
    history — which other trials warmed it in the same worker — so they
    can never appear in byte-identical campaign reports.  A stats object
    counts logical reuse instead: a key is a hit iff **this consumer**
    has asked for it before, which is a pure function of the consumer's
    own request sequence and therefore identical for any worker count.
    Physical counters remain on :class:`SpfCache` for the (single
    process) bench harness.
    """

    __slots__ = ("hits", "misses", "_seen")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._seen: Set[_Key] = set()

    def note(self, key: _Key) -> bool:
        """Record one request; True iff it was a (logical) repeat."""
        seen = self._seen
        before = len(seen)
        seen.add(key)  # one lookup: a repeat leaves the set's size alone
        if len(seen) == before:
            self.hits += 1
            return True
        self.misses += 1
        return False


class SpfCache:
    """A bounded LRU memo of route tables keyed ``(origin, fingerprint)``."""

    def __init__(self, max_entries: int = _MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._store: "OrderedDict[_Key, RouteTable]" = OrderedDict()
        #: lifetime counters (observability + the bench harness)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def compute(self, origin: str, lsdb: Lsdb) -> RouteTable:
        """``compute_routes(origin, lsdb)``, memoized.

        The returned table is shared between callers and immutable by
        convention.  Consumers that need deterministic accounting keep
        their own :class:`SpfCacheStats` and call :meth:`~SpfCacheStats.
        note` *before* this — never through it, so swapping the cache
        out (the fastpath differential tests do) cannot change what any
        consumer reports.
        """
        key = (origin, lsdb.fingerprint())
        store = self._store
        routes = store.get(key)
        if routes is not None:
            store.move_to_end(key)
            self.hits += 1
            return routes
        self.misses += 1
        routes = store[key] = compute_routes(origin, lsdb)
        if len(store) > self._max_entries:
            store.popitem(last=False)
        return routes


#: the process-wide shared instance (protocol, controller and checker
#: all benefit from each other's warm entries)
shared_spf_cache = SpfCache()


def compute_routes_cached(origin: str, lsdb: Lsdb) -> RouteTable:
    """Drop-in memoized :func:`~repro.routing.spf.compute_routes` over
    the shared cache."""
    return shared_spf_cache.compute(origin, lsdb)


# --------------------------------------------------------------- engine


class SpfEngine:
    """One link-state instance's route computer.

    The protocol classifies each fingerprint transition and hands the
    kind in with the database.  A ``refresh`` or ``cosmetic`` transition
    leaves every route as it was, so the engine hands back *the table
    object it already holds* — which the protocol's FIB download
    recognises as "no change" by identity; anything else asks the shared
    memo.
    """

    # no __slots__: the ``spf-engine-corrupted`` check mutant wraps
    # ``compute`` per instance

    def __init__(self, origin: str) -> None:
        self.origin = origin
        self._routes: RouteTable = {}

    def compute(self, lsdb: Lsdb, kind: str) -> RouteTable:
        """Routes for this engine's origin over ``lsdb``, reached by a
        transition of ``kind`` from the database it last saw."""
        if kind not in (REFRESH, COSMETIC):
            self._routes = compute_routes_cached(self.origin, lsdb)
        return self._routes
