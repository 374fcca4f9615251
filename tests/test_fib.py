"""Unit tests for the longest-prefix-match FIB."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.fib import Fib, FibEntry, LOCAL
from repro.net.ip import IPv4Address, Prefix


def entry(cidr: str, *hops: str) -> FibEntry:
    return FibEntry(Prefix(cidr), hops or ("nh",), source="test")


class TestFibBasics:
    def test_install_and_lookup(self):
        fib = Fib()
        fib.install(entry("10.11.0.0/24", "tor"))
        found = fib.lookup(IPv4Address("10.11.0.9"))
        assert found is not None and found.next_hops == ("tor",)

    def test_longest_prefix_wins(self):
        fib = Fib()
        fib.install(entry("10.11.0.0/16", "right"))
        fib.install(entry("10.11.0.0/24", "tor"))
        found = fib.lookup(IPv4Address("10.11.0.9"))
        assert found.prefix.length == 24

    def test_matches_yields_longest_first(self):
        fib = Fib()
        fib.install(entry("10.10.0.0/15", "left"))
        fib.install(entry("10.11.0.0/16", "right"))
        fib.install(entry("10.11.0.0/24", "tor"))
        lengths = [e.prefix.length for e in fib.matches(IPv4Address("10.11.0.1"))]
        assert lengths == [24, 16, 15]

    def test_fall_through_chain_is_the_f2tree_mechanism(self):
        """Table II: /24 via ToR, /16 via right neighbor, /15 via left."""
        fib = Fib()
        fib.install(entry("10.11.0.0/24", "S0"))
        fib.install(entry("10.11.0.0/16", "S9"))
        fib.install(entry("10.10.0.0/15", "S10"))
        chain = list(fib.matches(IPv4Address("10.11.0.7")))
        assert [e.next_hops[0] for e in chain] == ["S0", "S9", "S10"]

    def test_no_match_returns_none(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8"))
        assert fib.lookup(IPv4Address("11.0.0.1")) is None

    def test_default_route_matches_everything(self):
        fib = Fib()
        fib.install(entry("0.0.0.0/0", "gw"))
        assert fib.lookup(IPv4Address("200.1.2.3")).next_hops == ("gw",)

    def test_exact(self):
        fib = Fib()
        fib.install(entry("10.11.0.0/16", "x"))
        assert fib.exact(Prefix("10.11.0.0/16")) is not None
        assert fib.exact(Prefix("10.11.0.0/17")) is None
        assert fib.exact(Prefix("10.10.0.0/15")) is None

    def test_reinstall_replaces(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8", "a"))
        fib.install(entry("10.0.0.0/8", "b"))
        assert len(fib) == 1
        assert fib.lookup(IPv4Address("10.1.1.1")).next_hops == ("b",)

    def test_withdraw(self):
        fib = Fib()
        fib.install(entry("10.11.0.0/24", "tor"))
        fib.install(entry("10.11.0.0/16", "right"))
        assert fib.withdraw(Prefix("10.11.0.0/24"))
        assert fib.lookup(IPv4Address("10.11.0.1")).prefix.length == 16
        assert not fib.withdraw(Prefix("10.11.0.0/24"))

    def test_withdraw_absent_returns_false(self):
        assert not Fib().withdraw(Prefix("10.0.0.0/8"))

    def test_len_counts_entries(self):
        fib = Fib()
        for i in range(5):
            fib.install(entry(f"10.{i}.0.0/16"))
        assert len(fib) == 5
        fib.withdraw(Prefix("10.3.0.0/16"))
        assert len(fib) == 4

    def test_entries_iterates_all(self):
        fib = Fib()
        cidrs = {"10.0.0.0/8", "10.11.0.0/16", "10.11.0.0/24", "0.0.0.0/0"}
        for cidr in cidrs:
            fib.install(entry(cidr))
        assert {str(e.prefix) for e in fib.entries()} == cidrs

    def test_entries_order_is_network_then_length(self):
        """Replay bundles and FIB snapshots inherit this order."""
        fib = Fib()
        cidrs = [
            "10.11.0.0/24", "10.10.0.0/15", "10.11.0.7/32", "0.0.0.0/0",
            "10.11.0.0/16", "10.2.0.0/24", "10.11.0.0/32", "10.10.0.0/16",
        ]
        for cidr in cidrs:
            fib.install(entry(cidr))
        assert [str(e.prefix) for e in fib.entries()] == [
            "0.0.0.0/0", "10.2.0.0/24", "10.10.0.0/15", "10.10.0.0/16",
            "10.11.0.0/16", "10.11.0.0/24", "10.11.0.0/32", "10.11.0.7/32",
        ]

    def test_clear(self):
        fib = Fib()
        fib.install(entry("10.0.0.0/8"))
        fib.clear()
        assert len(fib) == 0
        assert fib.lookup(IPv4Address("10.0.0.1")) is None

    def test_empty_next_hops_rejected(self):
        with pytest.raises(ValueError):
            FibEntry(Prefix("10.0.0.0/8"), ())

    def test_local_sentinel_allowed(self):
        fib = Fib()
        fib.install(FibEntry(Prefix("10.11.0.0/24"), (LOCAL,), source="connected"))
        assert fib.lookup(IPv4Address("10.11.0.2")).next_hops == (LOCAL,)


def _brute_force_matches(entries, address):
    covering = [e for e in entries.values() if e.prefix.contains(address)]
    return sorted(covering, key=lambda e: -e.prefix.length)


@st.composite
def prefix_strategy(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    value = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    return Prefix(IPv4Address(value), length)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(prefix_strategy(), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=20),
)
def test_matches_agree_with_brute_force(prefixes, addresses):
    """The match chain must equal a brute-force scan, always, and
    ``entries()`` must come out sorted by ``(network, length)``."""
    fib = Fib()
    reference = {}
    for index, prefix in enumerate(prefixes):
        e = FibEntry(prefix, (f"nh{index}",), source="test")
        fib.install(e)
        reference[prefix] = e
    assert len(fib) == len(reference)
    for raw in addresses:
        address = IPv4Address(raw)
        expected = _brute_force_matches(reference, address)
        actual = list(fib.matches(address))
        assert [e.prefix for e in actual] == [e.prefix for e in expected]
    assert list(fib.entries()) == [
        reference[prefix]
        for prefix in sorted(reference, key=lambda p: (p.network, p.length))
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(prefix_strategy(), min_size=2, max_size=30, unique=True),
    st.data(),
)
def test_withdraw_then_lookup_consistent(prefixes, data):
    fib = Fib()
    reference = {}
    for index, prefix in enumerate(prefixes):
        e = FibEntry(prefix, (f"nh{index}",), source="test")
        fib.install(e)
        reference[prefix] = e
    victims = data.draw(st.sets(st.sampled_from(prefixes)))
    for prefix in victims:
        assert fib.withdraw(prefix)
        del reference[prefix]
    assert len(fib) == len(reference)
    probe = data.draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    address = IPv4Address(probe)
    expected = _brute_force_matches(reference, address)
    assert [e.prefix for e in fib.matches(address)] == [e.prefix for e in expected]
