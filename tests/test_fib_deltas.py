"""Property tests for batched FIB delta-application.

:meth:`Fib.apply_delta` is the control planes' FIB download primitive:
diff the previous download against the new route table
(:meth:`FibDelta.between`, the one diff all three control planes use),
apply the difference as one batch, bump :attr:`Fib.generation` exactly
once.
These tests pin the contract:

1. applying the computed delta to the old FIB yields a FIB equal to a
   from-scratch rebuild of the new table (entries, lookups, and match
   chains — the PR 5 chain cache must stay coherent across the single
   generation bump);
2. the generation bumps exactly once per mutating batch and not at all
   for an empty delta;
3. per-entry churn counters advance exactly as the equivalent sequence
   of ``install``/``withdraw`` calls would (batching-independent audit
   trail), with absent withdrawals ignored;
4. ``bulk_load`` of a batch in any order, duplicate prefixes included,
   equals the per-call ``install`` sequence but for its single bump;
5. withdrawing the last entry of a prefix length (the length-indexed
   table drops that length) leaves every other match chain intact.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.fib import Fib, FibDelta, FibEntry
from repro.net.ip import IPv4Address, Prefix

#: a small prefix universe so old/new tables overlap often (replacements
#: and no-op re-installs are the interesting delta cases)
_BASES = (0x0A000000, 0x0A010000, 0x0A018000, 0x0AFF0000)
_LENGTHS = (8, 15, 16, 24, 32)
_PREFIXES = sorted(
    {Prefix(base & (0xFFFFFFFF << (32 - length)), length)
     for base in _BASES for length in _LENGTHS},
)

_table = st.dictionaries(
    st.sampled_from(_PREFIXES),
    st.tuples(st.sampled_from(["n1", "n2", "n3"]),
              st.sampled_from(["n4", "n5"])),
    max_size=len(_PREFIXES),
)


def _probes():
    probes = []
    for prefix in _PREFIXES:
        probes.append(prefix.address(min(1, prefix.num_addresses - 1)))
        probes.append(prefix.address(max(0, prefix.num_addresses - 2)))
    probes.append(IPv4Address(0xC0A80001))  # matches nothing
    return probes


def _build(table) -> Fib:
    fib = Fib()
    for prefix in sorted(table):
        fib.install(FibEntry(prefix, table[prefix], source="test"))
    return fib


def _delta_between(old, new) -> FibDelta:
    """The diff every control plane downloads (``FibDelta.between``),
    checked against its definition: sorted withdrawals of vanished
    prefixes, sorted installs of new or changed ones."""
    delta = FibDelta.between(old, new, "test")
    assert delta == FibDelta(
        tuple(
            FibEntry(p, new[p], source="test")
            for p in sorted(new)
            if old.get(p) != new[p]
        ),
        tuple(sorted(p for p in old if p not in new)),
    )
    return delta


@settings(max_examples=200, deadline=None)
@given(old=_table, new=_table)
def test_delta_application_equals_rebuild(old, new):
    fib = _build(old)
    generation_before = fib.generation
    delta = _delta_between(old, new)
    fib.apply_delta(delta)

    rebuilt = _build(new)
    assert sorted(
        (e.prefix, e.next_hops) for e in fib.entries()
    ) == sorted((e.prefix, e.next_hops) for e in rebuilt.entries())
    assert len(fib) == len(rebuilt) == len(new)
    for address in _probes():
        assert [e.prefix for e in fib.matches(address)] == \
            [e.prefix for e in rebuilt.matches(address)]
        # the cached chain must see the post-delta state immediately:
        # one generation bump is enough to invalidate wholesale
        assert fib.chain(address) == tuple(fib.matches(address))

    # exactly one bump per mutating batch, zero for a no-op delta
    expected_bumps = 1 if delta else 0
    assert fib.generation == generation_before + expected_bumps


@settings(max_examples=200, deadline=None)
@given(old=_table, new=_table)
def test_delta_counters_match_percall_sequence(old, new):
    delta = _delta_between(old, new)

    batched = _build(old)
    batched.apply_delta(delta)

    percall = _build(old)
    for prefix in delta.withdrawals:
        percall.withdraw(prefix)
    for entry in delta.installs:
        percall.install(entry)

    assert batched.installs == percall.installs
    assert batched.withdrawals == percall.withdrawals
    assert len(batched) == len(percall)


_batch = st.lists(
    st.tuples(st.sampled_from(_PREFIXES), st.sampled_from(["n1", "n2", "n3"])),
    max_size=3 * len(_PREFIXES),
)


@settings(max_examples=200, deadline=None)
@given(old=_table, batch=_batch)
def test_bulk_load_equals_percall_installs(old, batch):
    """Unsorted batches and repeated prefixes (last one wins) included."""
    entries = tuple(
        FibEntry(prefix, (hop,), source="test") for prefix, hop in batch
    )
    bulk = _build(old)
    generation_before = bulk.generation
    bulk.bulk_load(entries)

    percall = _build(old)
    for entry in entries:
        percall.install(entry)

    assert list(bulk.entries()) == list(percall.entries())
    assert len(bulk) == len(percall)
    assert bulk.installs == percall.installs
    assert bulk.withdrawals == percall.withdrawals
    assert bulk.generation == generation_before + (1 if entries else 0)
    for address in _probes():
        assert bulk.chain(address) == tuple(percall.matches(address))


@settings(max_examples=200, deadline=None)
@given(table=_table, data=st.data())
def test_withdrawing_a_whole_length_leaves_other_chains_intact(table, data):
    length = data.draw(st.sampled_from(_LENGTHS))
    fib = _build(table)
    victims = [prefix for prefix in sorted(table) if prefix.length == length]
    expected = {
        address: [e for e in fib.matches(address) if e.prefix.length != length]
        for address in _probes()
    }
    fib.apply_delta(FibDelta(withdrawals=tuple(victims)))
    assert len(fib) == len(table) - len(victims)
    for address, chain in expected.items():
        assert list(fib.matches(address)) == chain
        assert list(fib.chain(address)) == chain
    # the length comes back as if it had never left
    restored = tuple(FibEntry(p, table[p], source="test") for p in victims)
    fib.bulk_load(restored)
    rebuilt = _build(table)
    assert list(fib.entries()) == list(rebuilt.entries())
    for address in _probes():
        assert list(fib.matches(address)) == list(rebuilt.matches(address))


def test_empty_delta_is_a_noop():
    table = {_PREFIXES[0]: ("n1",)}
    fib = _build(table)
    generation = fib.generation
    fib.apply_delta(FibDelta())
    assert fib.generation == generation
    assert not FibDelta()
    assert len(FibDelta()) == 0
    # route tables are immutable: the table already downloaded is "no
    # change" without a scan
    assert FibDelta.between(table, table, "test") == FibDelta()


def test_withdrawing_absent_prefix_is_ignored():
    fib = Fib()
    fib.install(FibEntry(_PREFIXES[0], ("n1",), source="test"))
    generation = fib.generation
    withdrawals_before = fib.withdrawals
    fib.apply_delta(FibDelta(withdrawals=(_PREFIXES[-1],)))
    # nothing mutated: no bump, no counter movement
    assert fib.generation == generation
    assert fib.withdrawals == withdrawals_before
    assert len(fib) == 1


def test_replace_within_one_batch():
    """A prefix in both positions (withdraw + install) ends installed —
    the replace case of a route's next hops changing."""
    prefix = _PREFIXES[0]
    fib = Fib()
    fib.install(FibEntry(prefix, ("n1",), source="test"))
    generation = fib.generation
    fib.apply_delta(FibDelta(
        installs=(FibEntry(prefix, ("n2", "n3"), source="test"),),
        withdrawals=(prefix,),
    ))
    assert fib.generation == generation + 1
    entry = fib.exact(prefix)
    assert entry is not None and entry.next_hops == ("n2", "n3")
    assert len(fib) == 1
