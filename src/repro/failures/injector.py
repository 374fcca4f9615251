"""Failure injection: deterministic schedules and random processes.

Two modes, matching the paper's two evaluation styles:

* **Deterministic** (§III, §IV-A): a list of :class:`FailureEvent`s — fail
  these links at these times, optionally restore them later.
* **Random** (§IV-B): failed links picked uniformly among switch-switch
  links; inter-failure times and failure durations both log-normal (the
  shape measured by Gill et al. [1]), with rate/duration calibrated so that
  the 600 s experiment sees ~40 failures averaging ~1 concurrent failure,
  or ~100 failures averaging ~5 (the paper's "1 and 5 concurrent failure
  conditions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..dataplane.network import Network
from ..sim.randomness import RandomStreams, lognormal_from_mean_sigma
from ..sim.units import SECOND, Time, seconds
from ..topology.graph import LinkKey, LinkKind, Topology, link_key


@dataclass(frozen=True)
class FailureEvent:
    """One link's outage: down at ``at``, up at ``restore_at`` (if ever)."""

    at: Time
    a: str
    b: str
    restore_at: Optional[Time] = None

    @property
    def key(self) -> LinkKey:
        return link_key(self.a, self.b)


def schedule_failures(network: Network, events: Sequence[FailureEvent]) -> None:
    """Register all events with the network's simulator."""
    for event in events:
        network.schedule_link_failure(event.a, event.b, event.at)
        if event.restore_at is not None:
            if event.restore_at <= event.at:
                raise ValueError(f"restore before failure in {event}")
            network.schedule_link_restore(event.a, event.b, event.restore_at)


def fabric_links(topology: Topology) -> List[LinkKey]:
    """Candidate links for random failures: switch-switch links only
    (host NICs are out of scope for the paper's failure model), parallel
    links collapsed to one key (they fail together, like a cable bundle)."""
    keys = {
        link.key
        for link in topology.links.values()
        if link.kind is not LinkKind.HOST
    }
    return sorted(keys)


@dataclass(frozen=True)
class RandomFailurePattern:
    """Log-normal failure process parameters."""

    mean_gap: Time
    mean_duration: Time
    gap_sigma: float = 1.0
    duration_sigma: float = 1.0

    @property
    def expected_concurrency(self) -> float:
        """Little's-law average number of concurrently failed links."""
        return self.mean_duration / self.mean_gap


def paper_failure_pattern(concurrency: int, horizon: Time = seconds(600)) -> RandomFailurePattern:
    """The §IV-B calibrations: ~40 failures in 600 s at concurrency 1,
    ~100 failures at concurrency 5 (scaled linearly for other horizons)."""
    if concurrency == 1:
        gap = horizon // 40
        return RandomFailurePattern(mean_gap=gap, mean_duration=gap)
    if concurrency == 5:
        gap = horizon // 100
        return RandomFailurePattern(mean_gap=gap, mean_duration=5 * gap)
    # generic calibration: keep the 1-concurrency arrival rate scaling
    gap = horizon // (40 * concurrency) * 2
    return RandomFailurePattern(mean_gap=gap, mean_duration=concurrency * gap)


def generate_random_failures(
    topology: Topology,
    pattern: RandomFailurePattern,
    horizon: Time,
    streams: RandomStreams,
    start: Time = 0,
) -> List[FailureEvent]:
    """Draw a failure schedule over [start, start + horizon).

    A link already down is never failed again before it restores, so the
    generated schedule is consistent (each event is a distinct outage).
    """
    rng = streams.stream("failures")
    candidates = fabric_links(topology)
    if not candidates:
        raise ValueError("topology has no fabric links to fail")
    events: List[FailureEvent] = []
    down_until: dict[LinkKey, Time] = {}
    now = start
    while True:
        gap = round(
            lognormal_from_mean_sigma(rng, pattern.mean_gap, pattern.gap_sigma)
        )
        now += max(gap, 1)
        if now >= start + horizon:
            break
        up_candidates = [
            key for key in candidates if down_until.get(key, 0) <= now
        ]
        if not up_candidates:
            continue
        key = up_candidates[rng.randrange(len(up_candidates))]
        duration = round(
            lognormal_from_mean_sigma(
                rng, pattern.mean_duration, pattern.duration_sigma
            )
        )
        duration = max(duration, SECOND // 1000)
        restore_at = now + duration
        down_until[key] = restore_at
        events.append(FailureEvent(now, key[0], key[1], restore_at))
    return events


def concurrency_profile(
    events: Sequence[FailureEvent], horizon: Time
) -> Tuple[int, float]:
    """(event count, time-averaged concurrent failures) of a schedule."""
    points: List[Tuple[Time, int]] = []
    for event in events:
        points.append((event.at, 1))
        points.append((event.restore_at or horizon, -1))
    points.sort()
    area = 0
    level = 0
    last = 0
    for t, delta in points:
        t = min(t, horizon)
        area += level * (t - last)
        last = t
        level += delta
    area += level * max(0, horizon - last)
    return len(events), area / horizon if horizon else 0.0
