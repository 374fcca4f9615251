"""Property tests for the FIB (longest-prefix tie-breaking) and ECMP
hashing (flow stickiness, distribution, salt decorrelation).

These are the two primitives the fast-reroute mechanism is built from:
the `/16`/`/15` fall-through is *only* correct if `matches()` really
enumerates longest-first, and reroute-time flow placement is *only*
deterministic if the hash is a pure function of (five-tuple, salt).
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.net.ecmp import flow_hash, select_next_hop
from repro.net.fib import Fib, FibEntry
from repro.net.ip import IPv4Address, Prefix

# ------------------------------------------------------------- strategies

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)

prefixes = st.builds(
    Prefix,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=1, max_value=32),
)

flow_keys = st.tuples(
    st.integers(min_value=0, max_value=0xFFFFFFFF),  # src
    st.integers(min_value=0, max_value=0xFFFFFFFF),  # dst
    st.integers(min_value=0, max_value=255),         # proto
    st.integers(min_value=0, max_value=65535),       # sport
    st.integers(min_value=0, max_value=65535),       # dport
)

salts = st.integers(min_value=0, max_value=2**64 - 1)


def build_fib(prefix_set):
    fib = Fib()
    for index, prefix in enumerate(prefix_set):
        fib.install(
            FibEntry(prefix, (f"nh-{index}",), source="test", metric=index)
        )
    return fib


# ------------------------------------------------------------ FIB / LPM


@settings(max_examples=150, deadline=None)
@given(
    prefix_set=st.sets(prefixes, min_size=1, max_size=24),
    address=addresses,
)
def test_matches_is_exactly_the_brute_force_chain_longest_first(
    prefix_set, address
):
    """The trie walk must enumerate exactly the containing entries in
    strictly decreasing prefix-length order (the fall-through order)."""
    fib = build_fib(prefix_set)
    chain = list(fib.matches(address))
    brute = sorted(
        (e for e in fib.entries() if e.prefix.contains(address)),
        key=lambda e: -e.prefix.length,
    )
    assert chain == brute
    lengths = [e.prefix.length for e in chain]
    assert lengths == sorted(lengths, reverse=True)
    # at most one entry per length can contain a given address
    assert len(set(lengths)) == len(lengths)


@settings(max_examples=150, deadline=None)
@given(
    prefix_set=st.sets(prefixes, min_size=1, max_size=24),
    address=addresses,
)
def test_lookup_is_the_longest_containing_prefix(prefix_set, address):
    fib = build_fib(prefix_set)
    containing = [p for p in prefix_set if p.contains(address)]
    entry = fib.lookup(address)
    if not containing:
        assert entry is None
    else:
        assert entry is not None
        assert entry.prefix.length == max(p.length for p in containing)
        assert entry.prefix.contains(address)


@settings(max_examples=100, deadline=None)
@given(
    prefix_set=st.sets(prefixes, min_size=2, max_size=16),
    address=addresses,
    data=st.data(),
)
def test_withdraw_falls_through_to_next_longest(prefix_set, address, data):
    """Withdrawing any entry leaves the FIB behaving exactly like one
    built without it — the algebraic form of fall-through."""
    fib = build_fib(prefix_set)
    victim = data.draw(st.sampled_from(sorted(prefix_set)), label="withdrawn")
    assert fib.withdraw(victim)
    assert fib.withdraw(victim) is False  # second withdraw is a no-op
    reference = build_fib([p for p in sorted(prefix_set) if p != victim])
    got = fib.lookup(address)
    want = reference.lookup(address)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.prefix == want.prefix
    assert len(fib) == len(reference)


@settings(max_examples=100, deadline=None)
@given(prefix_set=st.sets(prefixes, min_size=1, max_size=16))
def test_install_withdraw_roundtrip_restores_count(prefix_set):
    fib = build_fib(prefix_set)
    assert len(fib) == len(prefix_set)
    assert {e.prefix for e in fib.entries()} == set(prefix_set)
    for prefix in sorted(prefix_set):
        assert fib.withdraw(prefix)
    assert len(fib) == 0
    assert list(fib.entries()) == []


# ----------------------------------------------------------------- ECMP


@settings(max_examples=150, deadline=None)
@given(flow_key=flow_keys, salt=salts, width=st.integers(min_value=1, max_value=8))
def test_flow_stickiness_same_key_same_choice(flow_key, salt, width):
    """ECMP choice is a pure function of (five-tuple, salt, candidate
    set): repeated packets of one flow always take the same next hop."""
    candidates = tuple(f"nh-{i}" for i in range(width))
    first = select_next_hop(candidates, flow_key, salt)
    assert first in candidates
    for _ in range(3):
        assert select_next_hop(candidates, flow_key, salt) == first


@settings(max_examples=60, deadline=None)
@given(salt=salts, base=st.integers(min_value=0, max_value=0xFFFF0000))
def test_hash_spreads_consecutive_flows_roughly_evenly(salt, base):
    """Flows differing only by consecutive source ports (the pathological
    case the avalanche finalizer exists for) must spread over 2 next
    hops without gross bias."""
    candidates = ("left", "right")
    counts = Counter(
        select_next_hop(candidates, (base, base ^ 0xFFFF, 17, 10000 + i, 80), salt)
        for i in range(256)
    )
    # binomial(256, 0.5) is outside [64, 192] with probability < 1e-15
    assert 64 <= counts["left"] <= 192


@settings(max_examples=100, deadline=None)
@given(flow_key=flow_keys, salt=salts)
def test_salts_decorrelate_switches(flow_key, salt):
    """Different salts must not all agree on a flow's hash — otherwise
    every switch on a path would pick the same index and ECMP would
    polarize (the classic un-salted-hash failure)."""
    other_salts = [(salt + delta) & (2**64 - 1) for delta in range(1, 17)]
    reference = flow_hash(flow_key, salt)
    assert any(flow_hash(flow_key, s) != reference for s in other_salts)


@settings(max_examples=200, deadline=None)
@given(flow_key=flow_keys, salt=salts)
def test_memoised_flow_hash_equals_uncached(flow_key, salt):
    """The memo may never change a hash — it decides every path."""
    uncached = flow_hash.__wrapped__(flow_key, salt)
    assert flow_hash(flow_key, salt) == uncached  # miss (or an old hit)
    assert flow_hash(tuple(flow_key), salt) == uncached  # hit


def test_flow_hash_memo_is_bounded_and_survives_eviction():
    from repro.net.ecmp import FLOW_HASH_CACHE_SIZE

    assert flow_hash.cache_info().maxsize == FLOW_HASH_CACHE_SIZE
    first = (0x0A000102, 0x0A030102, 6, 33000, 7001)
    # values recorded before the hash was memoised
    assert flow_hash(first, 0xDEADBEEFCAFEF00D) == 0xAFE855772DC6CB37
    assert flow_hash((1, 2, 17, 10, 20), 7) == 0x2EF8C83E9BB7A8BF
    for sport in range(FLOW_HASH_CACHE_SIZE + 1):  # push ``first`` out
        flow_hash((1, 2, 17, sport, 20), 7)
    assert flow_hash.cache_info().currsize == FLOW_HASH_CACHE_SIZE
    assert flow_hash(first, 0xDEADBEEFCAFEF00D) == 0xAFE855772DC6CB37


@settings(max_examples=100, deadline=None)
@given(flow_key=flow_keys, salt=salts)
def test_single_candidate_shortcuts(flow_key, salt):
    assert select_next_hop(("only",), flow_key, salt) == "only"
