"""Launch instants of the seeded Fig 6 traffic draws."""

from __future__ import annotations

from typing import Callable, List

from ..sim.units import Time


def launch_times(
    count: int, start: Time, horizon: Time, gap: Callable[[float], float]
) -> List[Time]:
    """``count`` instants over ``[start, start + horizon)``: cumulative
    ``gap(horizon / count)`` draws from ``start``, rounded and clamped
    into the window.  All gaps are drawn here, before the caller's
    per-launch picks — a stream's order is every gap, then the picks in
    launch order (= schedule order: times are non-decreasing, ties run in
    sequence order).  A count of 0 draws nothing; a negative one raises.
    """
    if count < 0:
        raise ValueError(f"launch count must be >= 0, got {count}")
    times: List[Time] = []
    t = float(start)
    for _ in range(count):
        t += gap(horizon / count)
        times.append(min(round(t), start + horizon - 1))
    return times
