"""Request-level metrics for the partition-aggregate workload (§IV-B).

The paper's headline application metric is the **deadline-miss ratio**: the
fraction of partition-aggregate requests whose completion (all eight worker
responses received) takes longer than 250 ms [23].  Fig 6(b) additionally
shows the CDF of completion times above 100 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..sim.units import Time, milliseconds

#: the intra-DC deadline assumed by the paper (after Wilson et al. [23])
DEFAULT_DEADLINE: Time = milliseconds(250)


@dataclass
class RequestRecord:
    """Outcome of one partition-aggregate request (fan-out of N workers)."""

    started_at: Time
    completed_at: Optional[Time] = None

    @property
    def completion_time(self) -> Optional[Time]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass
class RequestStats:
    """Aggregated request outcomes."""

    records: List[RequestRecord] = field(default_factory=list)
    #: completion assumed for requests still incomplete at experiment end
    censored_at: Optional[Time] = None

    @property
    def total(self) -> int:
        return len(self.records)

    def completion_times(self) -> List[Time]:
        """Completion times; incomplete requests count as ``censored_at``
        (they certainly took at least that long)."""
        times = []
        for record in self.records:
            t = record.completion_time
            if t is None:
                if self.censored_at is not None:
                    t = max(self.censored_at - record.started_at, 0)
                else:
                    continue
            times.append(t)
        return times

    def deadline_miss_ratio(self, deadline: Time = DEFAULT_DEADLINE) -> float:
        """Fraction of requests completing after ``deadline`` (Fig 6(a))."""
        times = self.completion_times()
        if not times:
            return 0.0
        return sum(1 for t in times if t > deadline) / len(times)

    def fraction_longer_than(self, threshold: Time) -> float:
        times = self.completion_times()
        if not times:
            return 0.0
        return sum(1 for t in times if t > threshold) / len(times)

    def cdf(self) -> List[Tuple[Time, float]]:
        """Empirical CDF points (time, P[completion <= time])."""
        times = sorted(self.completion_times())
        n = len(times)
        return [(t, (i + 1) / n) for i, t in enumerate(times)]

    def tail_cdf_above(self, threshold: Time) -> List[Tuple[Time, float]]:
        """The Fig 6(b) view: CDF restricted to completions > threshold,
        with probabilities still relative to *all* requests."""
        return [(t, p) for t, p in self.cdf() if t > threshold]


def reduction_ratio(baseline: float, improved: float) -> float:
    """Relative reduction (the paper's "reduces ... by 96%")."""
    if baseline <= 0:
        return 0.0
    return (baseline - improved) / baseline
