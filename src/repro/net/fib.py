"""Forwarding Information Base: a length-indexed hash table with
longest-prefix matching.

The FIB is the heart of the reproduction: F²Tree's fast reroute is *nothing
but* longest-prefix-match fall-through.  The backup static routes use
prefixes (``/16``, ``/15``) shorter than anything OSPF installs (``/24``,
``/32``), so they are always present in the FIB; when every next hop of a
longer match is locally known to be dead, the lookup *falls through* to the
next-shorter match.  :meth:`Fib.matches` therefore yields matching entries
from longest to shortest and lets the data plane prune dead next hops at
each step.

The table is one dict per prefix length present, ``{length: {network:
entry}}``, and a lookup probes those lengths longest first with the
address masked to each.  A fabric uses four lengths (/32, /24 learned;
/16, /15 static), so a lookup is at most four dict probes however many
routes are installed, a bulk load is one dict store per entry, and a
switch's table costs one dict slot per route.  Entries are immutable, so
control planes may install the *same* :class:`FibEntry` object on many
switches (warm start does: switches of one pod and role hold
near-identical tables).

Steady-state forwarding never changes the FIB, so the per-destination
**match chain** (every covering entry, longest first) is cached by
destination address and invalidated wholesale by a :attr:`Fib.generation`
counter that every install/withdraw/clear bumps.  :meth:`Fib.chain` is the
cached entry point the data plane uses; :meth:`Fib.matches` remains the
uncached probe sequence and is the reference the differential tests
compare against.  The cache only memoizes the pure address→entries
function — all liveness pruning stays in the data plane — so cached and
uncached lookups are byte-identical by construction, and the hypothesis
differential test in ``tests/test_fastpath.py`` pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Optional, Tuple

from .ip import IPv4Address, Prefix

__all__ = ["LOCAL", "NextHop", "FibEntry", "FibDelta", "Fib"]

#: Sentinel next hop meaning "the destination is directly attached".
LOCAL = "LOCAL"

#: A next hop is a node identifier (or the LOCAL sentinel).
NextHop = Hashable


@dataclass(frozen=True)
class FibEntry:
    """One installed forwarding entry.

    ``next_hops`` is an ordered tuple (order matters for deterministic ECMP
    hashing).  ``source`` records the producing protocol ("connected",
    "linkstate", "static", ...) for observability and tests.
    """

    prefix: Prefix
    next_hops: Tuple[NextHop, ...]
    source: str = "unknown"
    metric: int = 0

    def __post_init__(self) -> None:
        if not self.next_hops:
            raise ValueError(f"FIB entry for {self.prefix} has no next hops")


@dataclass(frozen=True)
class FibDelta:
    """A computed batch of FIB changes applied atomically.

    Control planes diff their previous download against the new route
    table and hand the FIB only the difference — the common reconvergence
    case after a single link event changes a handful of prefixes out of
    dozens.  :meth:`Fib.apply_delta` applies the whole batch under **one**
    :attr:`Fib.generation` bump, so the per-destination match-chain cache
    is invalidated once per download instead of once per touched prefix.

    ``withdrawals`` are applied before ``installs``; an entry appearing in
    both positions (replace) therefore ends installed.  Both tuples are
    expected in deterministic (sorted) order — the order is observable
    through trace ``changes`` lists, not through the resulting table.
    """

    installs: Tuple[FibEntry, ...] = ()
    withdrawals: Tuple[Prefix, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.installs or self.withdrawals)

    def __len__(self) -> int:
        return len(self.installs) + len(self.withdrawals)


class Fib:
    """A longest-prefix-match forwarding table."""

    def __init__(self) -> None:
        #: prefix length -> {network -> entry}; only non-empty lengths
        self._tables: dict[int, dict[int, FibEntry]] = {}
        #: ``(netmask, table)`` per length present, longest first: the
        #: LPM probe sequence, rebuilt when a length appears or vanishes
        self._probes: Tuple[Tuple[int, dict[int, FibEntry]], ...] = ()
        #: lifetime churn counters (observability: FIB update audit trails)
        self.installs = 0
        self.withdrawals = 0
        #: bumped on every mutation; consumers key caches off it
        self.generation = 0
        #: observers of generation bumps (the fluid backend's recompute
        #: trigger); called synchronously after each mutating batch
        self.listeners: list[Callable[[], None]] = []
        #: destination value -> match chain, valid for _cache_generation
        self._chain_cache: dict[int, Tuple[FibEntry, ...]] = {}
        self._cache_generation = 0
        #: lifetime match-chain cache counters; deterministic (a pure
        #: function of the lookup/mutation sequence), surfaced through
        #: MetricsRegistry and the bench harness as a hit rate
        self.chain_hits = 0
        self.chain_misses = 0

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))

    def _reindex(self) -> None:
        self._probes = tuple(
            (Prefix(0, length).mask, self._tables[length])
            for length in sorted(self._tables, reverse=True)
        )

    def _insert(self, entry: FibEntry) -> None:
        """Table store only — no counter or generation accounting."""
        prefix = entry.prefix
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._reindex()
        table[prefix.network] = entry

    def _remove(self, prefix: Prefix) -> bool:
        """Table removal only — no counter or generation accounting."""
        table = self._tables.get(prefix.length)
        if table is None or table.pop(prefix.network, None) is None:
            return False
        if not table:
            del self._tables[prefix.length]
            self._reindex()
        return True

    def _changed(self) -> None:
        """One generation bump + listener fan-out per mutating batch."""
        self.generation += 1
        for listener in self.listeners:
            listener()

    def install(self, entry: FibEntry) -> None:
        """Insert or replace the entry for ``entry.prefix``."""
        self.installs += 1
        self._insert(entry)
        self._changed()

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove the entry for ``prefix``; returns False if absent."""
        if not self._remove(prefix):
            return False
        self.withdrawals += 1
        self._changed()
        return True

    def apply_delta(self, delta: FibDelta) -> None:
        """Apply one computed change batch with a single generation bump.

        Per-entry churn counters advance exactly as the equivalent
        sequence of :meth:`install`/:meth:`withdraw` calls would (the
        telemetry audit trail is batching-independent); only
        :attr:`generation` differs — one bump per mutating batch, which
        is what keeps the match-chain cache coherent at batch cost
        instead of per-prefix cost.  Withdrawals of absent prefixes are
        ignored, mirroring :meth:`withdraw` returning ``False``.
        """
        mutated = False
        for prefix in delta.withdrawals:
            if self._remove(prefix):
                self.withdrawals += 1
                mutated = True
        for entry in delta.installs:
            self._insert(entry)
            self.installs += 1
            mutated = True
        if mutated:
            self._changed()

    def bulk_load(self, entries: Tuple[FibEntry, ...]) -> None:
        """Install a whole entry batch under one generation bump.

        Observably equivalent to ``apply_delta(FibDelta(entries, ()))``
        and to the per-call :meth:`install` sequence, whatever the batch
        order and with a later duplicate of a prefix replacing an
        earlier one: same resulting table, same churn counters, one
        generation bump and listener fan-out.  An empty batch is a no-op.
        """
        if not entries:
            return
        for entry in entries:
            self._insert(entry)
        self.installs += len(entries)
        self._changed()

    def exact(self, prefix: Prefix) -> Optional[FibEntry]:
        """The entry installed for exactly ``prefix``, if any."""
        table = self._tables.get(prefix.length)
        return None if table is None else table.get(prefix.network)

    def matches(self, address: IPv4Address) -> Iterator[FibEntry]:
        """Yield every entry covering ``address``, longest prefix first.

        This is the primitive the data plane builds fast reroute on: it
        walks the chain and stops at the first entry with a *live* next hop.
        """
        value = address.value
        for mask, table in self._probes:
            entry = table.get(value & mask)
            if entry is not None:
                yield entry

    def chain(self, address: IPv4Address) -> Tuple[FibEntry, ...]:
        """The cached match chain for ``address`` (longest prefix first).

        Semantically ``tuple(self.matches(address))``; the probe sequence
        runs once per (destination, generation) and every later lookup is
        a dict hit.  The steady-state forwarding path goes through here.
        """
        if self._cache_generation != self.generation:
            self._chain_cache.clear()
            self._cache_generation = self.generation
        value = address.value
        cached = self._chain_cache.get(value)
        if cached is None:
            self.chain_misses += 1
            cached = tuple(self.matches(address))
            self._chain_cache[value] = cached
        else:
            self.chain_hits += 1
        return cached

    def lookup(self, address: IPv4Address) -> Optional[FibEntry]:
        """Plain longest-prefix match (first element of :meth:`matches`)."""
        chain = self.chain(address)
        return chain[0] if chain else None

    def entries(self) -> Iterator[FibEntry]:
        """Iterate all installed entries in ``(network, length)`` order
        (replay bundles and FIB snapshots inherit it)."""
        found = [e for table in self._tables.values() for e in table.values()]
        found.sort(key=lambda e: (e.prefix.network, e.prefix.length))
        return iter(found)

    def clear(self) -> None:
        """Remove every entry."""
        self._tables = {}
        self._probes = ()
        self._changed()
