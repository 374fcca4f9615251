"""Time and data-size units for the simulator.

All simulated time is kept as **integer nanoseconds** so that event ordering
is exact and runs are bit-for-bit reproducible.  The helpers here convert
human-friendly quantities into nanoseconds (and back), and compute
serialization delays for the store-and-forward link model.

The choice of nanoseconds is deliberate: a 1500-byte frame at 1 Gbps
serializes in exactly 12 000 ns, so the paper's per-hop arithmetic
(12 us transmission + 5 us propagation = 17 us) is representable without
rounding error.
"""

from __future__ import annotations

from functools import lru_cache

#: Type alias for simulated time (integer nanoseconds).
Time = int

NANOSECOND: Time = 1
MICROSECOND: Time = 1_000
MILLISECOND: Time = 1_000_000
SECOND: Time = 1_000_000_000


def nanoseconds(value: float) -> Time:
    """Convert a value in nanoseconds to simulator time."""
    return round(value)


def microseconds(value: float) -> Time:
    """Convert a value in microseconds to simulator time."""
    return round(value * MICROSECOND)


def milliseconds(value: float) -> Time:
    """Convert a value in milliseconds to simulator time."""
    return round(value * MILLISECOND)


def seconds(value: float) -> Time:
    """Convert a value in seconds to simulator time."""
    return round(value * SECOND)


def to_microseconds(t: Time) -> float:
    """Convert simulator time to (float) microseconds."""
    return t / MICROSECOND


def to_milliseconds(t: Time) -> float:
    """Convert simulator time to (float) milliseconds."""
    return t / MILLISECOND


def to_seconds(t: Time) -> float:
    """Convert simulator time to (float) seconds."""
    return t / SECOND


def gbps(value: float) -> float:
    """Express a link rate given in gigabits/second as bits per nanosecond."""
    return value  # 1 Gbps == 1 bit/ns, conveniently.


@lru_cache(maxsize=1024)
def transmission_delay(size_bytes: int, rate_gbps: float) -> Time:
    """Serialization delay of ``size_bytes`` at ``rate_gbps``.

    With rates expressed in Gbps, one bit takes ``1/rate`` nanoseconds, so a
    packet of ``8 * size_bytes`` bits takes ``8 * size_bytes / rate`` ns.

    Memoised (bounded): every packet hop asks, and a trial has a few
    dozen distinct wire sizes at one rate.
    ``transmission_delay.__wrapped__`` is the uncached function; an
    invalid rate raises on every call (exceptions are not cached).
    """
    if rate_gbps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_gbps}")
    return round(8 * size_bytes / rate_gbps)
