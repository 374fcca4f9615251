"""Memoized + incremental SPF: the biggest repeated computation here.

:func:`repro.routing.spf.compute_routes` is a pure function of the
two-way neighbor graph plus advertised prefixes — LSA sequence numbers
never influence the result.  :meth:`repro.routing.lsdb.Lsdb.fingerprint`
digests exactly that routing-relevant content, so ``(origin,
fingerprint)`` is a sound cache key: equal keys provably yield equal
route tables.

The cache stores the full :class:`~repro.routing.spf_incremental.
SpfState` (distances + ECMP first hops + routes), not just the route
table, and that makes misses cheap too: when an origin's previous state
is still resident and the fingerprint transition is a single link
up/down, the new state is **patched incrementally** from the old one
instead of recomputed from scratch (see :mod:`repro.routing.
spf_incremental`; falls back to a full Dijkstra on structural changes).
Under a failure storm — the paper's motivating regime — nearly every
transition is a single-edge delta, so the per-switch SPF cost drops from
O(V log V + E) to the size of the affected subtree.

Three subsystems repeat identical SPF work and share this cache:

* the distributed protocol (:mod:`repro.routing.linkstate`) — via its
  per-instance :class:`~repro.routing.spf_incremental.
  IncrementalSpfEngine`, whose *full* computations land here;
* the static verifier (:mod:`repro.verify`) — enumerating 16k+ failure
  sets, many of which collapse to the same surviving graph;
* the convergence-agreement invariant (:mod:`repro.check.invariants`) —
  the centralized oracle recomputes every switch's table after every
  topology event.

Determinism is unaffected by construction: a hit returns a dict *equal*
to what :func:`compute_routes` would return (nobody mutates a route
table an engine has returned, the engine included: the protocol holds
this very object as its download), and an incremental patch is
differentially pinned equal to the from-scratch result by
``tests/test_spf_incremental.py``.  Eviction is LRU over a deterministic
access sequence, hence itself deterministic.  The cache is per-process;
campaign workers warm it across the trials of their chunk, and the
1-vs-N-worker byte-identity tests pin that sharing changes nothing
observable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from .lsdb import Lsdb
from .spf import RouteTable
from .spf_incremental import (
    LINK_DOWN,
    LINK_UP,
    Fingerprint,
    SpfState,
    apply_single_edge,
    classify_transition,
    full_state,
)

#: default bound: a 40-switch grid trial needs ~40 entries per distinct
#: surviving graph; 4096 comfortably covers a verifier enumeration sweep
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
    """A bounded LRU memo for SPF states, incremental on single-edge misses."""

    def __init__(self, max_entries: int = _MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._store: "OrderedDict[_Key, SpfState]" = OrderedDict()
        #: origin -> fingerprint of that origin's most recent state, the
        #: incremental-patch candidate on the next miss for the origin
        self._latest: Dict[str, Fingerprint] = {}
        #: when False every miss takes the from-scratch path (the bench
        #: harness and the differential tests flip this)
        self.incremental = True
        #: lifetime counters (observability + the bench harness)
        self.hits = 0
        self.misses = 0
        self.incremental_updates = 0
        self.full_computes = 0

    def __len__(self) -> int:
        return len(self._store)

    def _miss(self, origin: str, lsdb: Lsdb, fingerprint: tuple) -> SpfState:
        if self.incremental:
            previous = self._previous_state(origin)
            if previous is not None:
                delta = classify_transition(previous.fingerprint, fingerprint)
                if delta.kind in (LINK_DOWN, LINK_UP):
                    patched = apply_single_edge(previous, fingerprint, delta)
                    if patched is not None:
                        self.incremental_updates += 1
                        return patched[0]
        self.full_computes += 1
        return full_state(origin, lsdb)

    def _previous_state(self, origin: str) -> Optional[SpfState]:
        latest = self._latest.get(origin)
        if latest is None:
            return None
        return self._store.get((origin, latest))

    def compute_state(self, origin: str, lsdb: Lsdb) -> SpfState:
        """The full SPF state for ``(origin, lsdb)``, memoized.

        The returned state is shared between callers and immutable by
        convention.  Consumers that need deterministic accounting keep
        their own :class:`SpfCacheStats` and call :meth:`~SpfCacheStats.
        note` *before* this — never through it, so swapping the cache
        out (the fastpath differential tests do) cannot change what any
        consumer reports.
        """
        fingerprint = lsdb.fingerprint()
        key = (origin, fingerprint)
        store = self._store
        state = store.get(key)
        if state is not None:
            store.move_to_end(key)
            self.hits += 1
            self._latest[origin] = fingerprint
            return state
        self.misses += 1
        state = self._miss(origin, lsdb, fingerprint)
        store[key] = state
        self._latest[origin] = fingerprint
        if len(store) > self._max_entries:
            evicted_key, _ = store.popitem(last=False)
            if self._latest.get(evicted_key[0]) == evicted_key[1]:
                del self._latest[evicted_key[0]]
        return state

    def compute(self, origin: str, lsdb: Lsdb) -> RouteTable:
        """``compute_routes(origin, lsdb)``, memoized + incremental."""
        return self.compute_state(origin, lsdb).routes

    def clear(self) -> None:
        self._store.clear()
        self._latest.clear()


#: the process-wide shared instance (protocol, verifier, and checker all
#: benefit from each other's warm entries)
shared_spf_cache = SpfCache()


def compute_routes_cached(origin: str, lsdb: Lsdb) -> RouteTable:
    """Drop-in memoized :func:`~repro.routing.spf.compute_routes` over
    the shared cache."""
    return shared_spf_cache.compute(origin, lsdb)
