"""Equal-Cost Multi-Path (ECMP) flow hashing (RFC 2992 style).

Production switches hash the five-tuple so that every packet of a flow takes
the same path while different flows spread over the equal-cost set.  We use
FNV-1a over the packed five-tuple plus a per-switch salt:

* deterministic across runs (unlike Python's randomized ``hash``),
* different switches make independent choices (the salt), matching real
  hardware where each hop hashes independently,
* stable under next-hop-set changes only in the trivial modulo sense — like
  the simple ECMP the paper assumes, a set change may remap flows, which is
  exactly the "eliminate the failed path from the set" behaviour of §II-A.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, TypeVar

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

T = TypeVar("T")


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def _avalanche(value: int) -> int:
    """splitmix64 finalizer: raw FNV-1a's low bits correlate for
    five-tuples differing by small increments (consecutive ports /
    addresses), which clusters ECMP choices; this mixes every input bit
    into the low bits the modulo actually uses."""
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


#: ``flow_hash`` memo bound, in distinct (flow, switch salt) pairs (~300
#: bytes each).  A single-flow recovery asks for under 10; a Fig 6 cell at
#: 8 ports (32 requests x fan-out 8, 12 background flows) for ~1000 over its
#: run, but a flow's packets come in bursts, so every miss there is a first
#: touch at any bound from 512 up.  Beyond the bound the least recently
#: used pair is recomputed on its next packet.
FLOW_HASH_CACHE_SIZE = 1 << 10


@lru_cache(maxsize=FLOW_HASH_CACHE_SIZE)
def flow_hash(flow_key: tuple, salt: int) -> int:
    """Hash a five-tuple with a per-switch salt.

    Pure in ``(flow_key, salt)`` and asked once per packet per ECMP
    choice, so it is memoised; ``flow_hash.__wrapped__`` is the uncached
    function the differential tests run against.
    """
    src, dst, proto, sport, dport = flow_key
    packed = (
        src.to_bytes(4, "big")
        + dst.to_bytes(4, "big")
        + proto.to_bytes(1, "big")
        + sport.to_bytes(2, "big")
        + dport.to_bytes(2, "big")
        + (salt & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
    )
    return _avalanche(fnv1a_64(packed))


def select_next_hop(candidates: Sequence[T], flow_key: tuple, salt: int) -> T:
    """Pick one element of ``candidates`` for this flow.

    ``candidates`` must be non-empty and in a deterministic order (the FIB
    keeps next-hop tuples ordered), so the choice is reproducible.
    """
    if not candidates:
        raise ValueError("select_next_hop called with no candidates")
    if len(candidates) == 1:
        return candidates[0]
    return candidates[flow_hash(flow_key, salt) % len(candidates)]
