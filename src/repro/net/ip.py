"""IPv4 addresses and prefixes.

A tiny, fast IPv4 model: addresses are wrapped 32-bit integers, prefixes are
``(network, length)`` pairs with the host bits forced to zero.  We implement
this ourselves (rather than using :mod:`ipaddress`) because the FIB needs
millions of cheap integer comparisons during forwarding, and because the
semantics we need — containment, covering prefixes, iteration — are a small,
easily-tested subset.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator, Union

_MAX32 = 0xFFFFFFFF


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


@total_ordering
class IPv4Address:
    """An IPv4 address backed by a 32-bit integer."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[int, str, "IPv4Address"]) -> None:
        if isinstance(value, IPv4Address):
            self.value = value.value
            self._hash = value._hash
            return
        if isinstance(value, str):
            value = _parse_dotted(value)
        if not isinstance(value, int):
            raise AddressError(f"cannot build an address from {value!r}")
        if not 0 <= value <= _MAX32:
            raise AddressError(f"address out of range: {value}")
        self.value = value
        # precomputed: addresses are immutable and live as dict keys in
        # hot paths (ARP-ish maps, flow keys), so __hash__ must be a
        # plain attribute load
        self._hash = hash(("IPv4Address", value))

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"


def _parse_dotted(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _mask(length: int) -> int:
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    return (_MAX32 << (32 - length)) & _MAX32 if length else 0


@total_ordering
class Prefix:
    """An IPv4 prefix (network address + length), e.g. ``10.11.0.0/16``."""

    __slots__ = ("network", "length", "_hash")

    def __init__(self, network: Union[int, str, IPv4Address], length: int | None = None) -> None:
        if isinstance(network, str) and "/" in network:
            if length is not None:
                raise AddressError("length given twice")
            net_text, len_text = network.split("/", 1)
            network = IPv4Address(net_text)
            length = int(len_text)
        if length is None:
            raise AddressError("prefix length is required")
        addr = IPv4Address(network) if not isinstance(network, IPv4Address) else network
        mask = _mask(length)
        self.network = addr.value & mask
        self.length = length
        # precomputed: prefixes key route tables, FIB downloads, and the
        # LSDB fingerprints the SPF caches hash on every lookup — the
        # tuple-build-per-call hash dominated those lookups in profiles
        self._hash = hash(("Prefix", self.network, length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``'a.b.c.d/len'``."""
        return cls(text)

    @property
    def mask(self) -> int:
        """Netmask as a 32-bit integer."""
        return _mask(self.length)

    @property
    def network_address(self) -> IPv4Address:
        """The network address (host bits zero)."""
        return IPv4Address(self.network)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    def contains(self, item: Union[IPv4Address, "Prefix", int, str]) -> bool:
        """True when this prefix covers the given address or prefix."""
        if isinstance(item, Prefix):
            return item.length >= self.length and (item.network & self.mask) == self.network
        addr = item if isinstance(item, IPv4Address) else IPv4Address(item)
        return (addr.value & self.mask) == self.network

    def __contains__(self, item: Union[IPv4Address, "Prefix", int, str]) -> bool:
        return self.contains(item)

    def supernet(self, new_length: int | None = None) -> "Prefix":
        """The covering prefix one bit shorter (or at ``new_length``)."""
        if new_length is None:
            new_length = self.length - 1
        if new_length < 0 or new_length > self.length:
            raise AddressError(
                f"invalid supernet length {new_length} for /{self.length}"
            )
        return Prefix(IPv4Address(self.network), new_length)

    def address(self, offset: int) -> IPv4Address:
        """The ``offset``-th address inside the prefix."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(f"offset {offset} outside /{self.length}")
        return IPv4Address(self.network + offset)

    def hosts(self) -> Iterator[IPv4Address]:
        """Iterate over host addresses (network and broadcast excluded for
        prefixes shorter than /31)."""
        if self.length >= 31:
            yield from (self.address(i) for i in range(self.num_addresses))
            return
        for i in range(1, self.num_addresses - 1):
            yield self.address(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self.network == other.network and self.length == other.length
        return NotImplemented

    def __lt__(self, other: "Prefix") -> bool:
        return (self.network, self.length) < (other.network, other.length)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.network_address}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix('{self}')"
