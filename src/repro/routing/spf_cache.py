"""The engine a link-state instance computes routes with, its
per-fingerprint table reuse, and the transition taxonomy.

:func:`repro.routing.spf.compute_routes` is a pure function of the
two-way neighbor graph plus advertised prefixes — LSA sequence numbers
never influence the result.  :meth:`repro.routing.lsdb.Lsdb.fingerprint`
digests exactly that routing-relevant content, so a fingerprint is a
sound memo key for one origin: equal keys provably yield equal route
tables.  A miss is one from-scratch Dijkstra; nothing is patched.

Each :class:`SpfEngine` keeps its own ``{fingerprint: table}`` memo for
its lifetime, which is one trial's: an A→B→A flap finds A's table again,
and no trial's cost or trace depends on what ran before it in the
process.  Three consumers ask one origin at a time, each through engines
of its own:

* the distributed protocol (:mod:`repro.routing.linkstate`), one engine
  per instance;
* the centralized controller (:mod:`repro.routing.centralized`);
* the convergence-agreement invariant (:mod:`repro.check.invariants`),
  which so shares no table with the protocol under test — and on a
  fluid trial, where the protocol computes through the batch kernel
  (:mod:`repro.routing.spf_batch`), is the only route computer that is
  not the one under test.

Whoever wants every origin of one database at once asks the batch
kernel instead; the two are each other's differential oracle
(``tests/test_spf_incremental.py``, ``tests/test_spf_batch.py``).

Determinism is unaffected by construction: a hit returns a dict *equal*
to what :func:`compute_routes` would return (nobody mutates a route
table an engine has returned, the engine included: the protocol holds
this very object as its download).

The transition taxonomy (:func:`classify_transition`) is what every
``spf.run`` trace record and ``spf`` span leaf carries as ``delta``: a
pure function of one consumer's fingerprint sequence, classified by the
protocol before any engine runs, so independent of how — or whether —
anything was computed.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .lsdb import Fingerprint, Lsdb
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


def classify_transition(
    old_fp: Optional[Fingerprint], new_fp: Fingerprint
) -> str:
    """The kind of the transition between two fingerprints; ``old_fp``
    None is a consumer's first computation.

    Reads only the entries that changed (:meth:`~repro.routing.lsdb.
    Fingerprint.changes_to`): a two-way edge can appear or disappear
    only where an endpoint's neighbor listing changed.
    """
    if old_fp is None:
        return INITIAL
    if old_fp == new_fp:
        return REFRESH
    changed, old, new = old_fp.changes_to(new_fp)
    #: ``(endpoint, endpoint, up after)`` of every two-way edge that flipped
    flipped: Set[Tuple[str, str, bool]] = set()
    for origin in changed:
        was, now = old(origin), new(origin)
        if was is None or now is None or was[2] != now[2]:
            return STRUCTURAL  # origin set or advertised prefixes changed
        # an edge to a peer both listings hold (or both lack) flips only
        # if the peer's own listing changed: the peer's turn finds it
        for peer in set(was[1]).symmetric_difference(now[1]):
            up_after = peer in now[1]
            # the edge can exist only on the side listing the peer, and
            # there only if the peer lists this origin back
            back = (new if up_after else old)(peer)
            if peer != origin and back is not None and origin in back[1]:
                flipped.add((min(origin, peer), max(origin, peer), up_after))
    if not flipped:
        return COSMETIC
    if len(flipped) > 1:
        return STRUCTURAL
    return LINK_UP if next(iter(flipped))[2] else LINK_DOWN


# --------------------------------------------------------------- stats


class SpfCacheStats:
    """Deterministic *logical* hit/miss accounting for one consumer.

    A key is a hit iff **this consumer** has asked for it before, which
    is a pure function of the consumer's own request sequence — whatever
    engine then answers it, memoized or not — and therefore identical
    for any worker count and any engine a trial swaps in.
    """

    __slots__ = ("hits", "misses", "_seen")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._seen: Set[Tuple[str, Fingerprint]] = set()

    def note(self, key: Tuple[str, Fingerprint]) -> bool:
        """Record one request; True iff it was a (logical) repeat."""
        seen = self._seen
        before = len(seen)
        seen.add(key)  # one lookup: a repeat leaves the set's size alone
        if len(seen) == before:
            self.hits += 1
            return True
        self.misses += 1
        return False


# --------------------------------------------------------------- engine


class SpfEngine:
    """One origin's route computer, with its own table memo.

    The protocol classifies each fingerprint transition and hands the
    kind in with the database.  A ``refresh`` or ``cosmetic`` transition
    leaves every route as it was, so the engine hands back *the table
    object it already holds* — which the protocol's FIB download
    recognises as "no change" by identity; anything else asks
    :meth:`routes`.
    """

    # no __slots__: the ``spf-engine-corrupted`` check mutant wraps
    # ``compute`` per instance

    def __init__(self, origin: str) -> None:
        self.origin = origin
        self._routes: RouteTable = {}
        #: every table this engine computed, by the fingerprint it read
        self._tables: Dict[Fingerprint, RouteTable] = {}

    def routes(self, lsdb: Lsdb) -> RouteTable:
        """``compute_routes(origin, lsdb)``, memoized per fingerprint:
        a database this engine has seen before returns the table object
        it got then."""
        fingerprint = lsdb.fingerprint()
        routes = self._tables.get(fingerprint)
        if routes is None:
            routes = self._tables[fingerprint] = compute_routes(self.origin, lsdb)
        return routes

    def compute(self, lsdb: Lsdb, kind: str) -> RouteTable:
        """Routes for this engine's origin over ``lsdb``, reached by a
        transition of ``kind`` from the database it last saw."""
        if kind not in (REFRESH, COSMETIC):
            self._routes = self.routes(lsdb)
        return self._routes
