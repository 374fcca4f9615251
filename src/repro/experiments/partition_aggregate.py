"""§IV-B: partition-aggregate under random failures (Fig 6).

8-port fat tree vs F²Tree; partition-aggregate requests (fan-out 8, 2 KB
responses, 250 ms deadline) plus log-normal background flows; random
link failures with log-normal gaps/durations at average concurrency 1 or 5.

The paper runs 600 s with >3000 requests, 1500 background flows and ~40 /
~100 failures.  That runs in minutes in this simulator; the default here
is a 1/10-scale run (same rates, shorter horizon) so the benchmark suite
stays fast — set ``REPRO_FULL_SCALE=1`` for the paper-scale run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..dataplane.params import NetworkParams
from ..failures.injector import (
    concurrency_profile,
    generate_random_failures,
    paper_failure_pattern,
    schedule_failures,
)
from ..metrics.requests import DEFAULT_DEADLINE, RequestStats, reduction_ratio
from ..sim.units import Time, milliseconds, seconds, to_milliseconds
from ..workloads.background import BackgroundTraffic
from ..workloads.flow_partition_aggregate import (
    FlowBackgroundTraffic,
    FlowPartitionAggregateWorkload,
)
from ..workloads.partition_aggregate import PartitionAggregateWorkload
from .common import DEFAULT_WARMUP, build_bundle, full_scale, trial_heap
from .conditions import conditions_topology


@dataclass(frozen=True)
class PartitionAggregateConfig:
    """Sizing of one Fig 6 run."""

    duration: Time = seconds(60)
    n_requests: int = 300
    n_background_flows: int = 150
    concurrent_failures: int = 1
    ports: int = 8
    seed: int = 7

    @classmethod
    def paper_scale(cls, concurrent_failures: int = 1, seed: int = 7) -> "PartitionAggregateConfig":
        """The full §IV-B sizing (600 s, >3000 requests, 1500 flows)."""
        return cls(
            duration=seconds(600),
            n_requests=3000,
            n_background_flows=1500,
            concurrent_failures=concurrent_failures,
            seed=seed,
        )

    @classmethod
    def default(cls, concurrent_failures: int = 1, seed: int = 7) -> "PartitionAggregateConfig":
        if full_scale():
            return cls.paper_scale(concurrent_failures, seed)
        return cls(concurrent_failures=concurrent_failures, seed=seed)


@dataclass
class PartitionAggregateResult:
    """One Fig 6 data point (one topology, one failure level)."""

    kind: str
    config: PartitionAggregateConfig
    stats: RequestStats
    n_failures: int
    average_concurrency: float
    background_completed: int
    background_total: int
    #: the traffic backend's own counters — the fluid model's
    #: :meth:`~repro.sim.flow.model.FluidTrafficModel.stats` (recomputes,
    #: solves, path resolutions / cache hits) plus the warm start's
    #: ``batch_spf_runs`` / ``batch_spf_hits``; empty for the packet run
    backend_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def deadline_miss_ratio(self) -> float:
        return self.stats.deadline_miss_ratio(DEFAULT_DEADLINE)


def run_partition_aggregate(
    kind: str,
    config: Optional[PartitionAggregateConfig] = None,
    params: Optional[NetworkParams] = None,
) -> PartitionAggregateResult:
    """Run one (topology, concurrency) cell of Fig 6 on the backend
    ``params`` selects.  Topology, failures and traffic are drawn alike on
    both; the backend only picks the traffic's carrier (TCP, or reliable
    fluid flows whose completions are read analytically after the drain).
    """
    with trial_heap() as settled:
        config = config or PartitionAggregateConfig.default()
        topology = conditions_topology(kind, config.ports)
        bundle = build_bundle(topology, params=params, seed=config.seed)
        settled()
        bundle.converge(DEFAULT_WARMUP)

        network, streams, model = bundle.network, bundle.streams, bundle.flow_model
        workload: Union[PartitionAggregateWorkload, FlowPartitionAggregateWorkload]
        background: Union[BackgroundTraffic, FlowBackgroundTraffic]
        fluid: Tuple[Union[FlowPartitionAggregateWorkload, FlowBackgroundTraffic], ...] = ()
        if model is None:
            workload = PartitionAggregateWorkload(network, streams, n_requests=config.n_requests)
            background = BackgroundTraffic(network, streams)
        else:
            workload = FlowPartitionAggregateWorkload(
                network, model, streams, n_requests=config.n_requests
            )
            background = FlowBackgroundTraffic(network, model, streams)
            fluid = (workload, background)

        start = DEFAULT_WARMUP
        workload.schedule(start, config.duration)
        background.schedule(config.n_background_flows, start, config.duration)

        pattern = paper_failure_pattern(config.concurrent_failures, config.duration)
        events = generate_random_failures(topology, pattern, config.duration, streams, start=start)
        schedule_failures(network, events)
        n_failures, avg_concurrency = concurrency_profile(events, config.duration)

        # drain long enough for OSPF backoff timers (up to 10 s), TCP retries
        # of the last requests and reliable fluid backlogs to settle
        end = start + config.duration + seconds(15)
        bundle.sim.run(until=end)
        workload.stats.censored_at = end

        backend_stats: Dict[str, int] = {}
        if model is not None:
            model.finalize()
            for driver in fluid:
                driver.collect()
            # the oracle's hit ratio rides with the model's counters, so a
            # report shows how often post-failure SPF shared a batch run
            backend_stats = model.stats()
            if bundle.route_oracle is not None:
                backend_stats["batch_spf_runs"] = bundle.route_oracle.batch_runs
                backend_stats["batch_spf_hits"] = bundle.route_oracle.hits

        return PartitionAggregateResult(
            kind=kind,
            config=config,
            stats=workload.stats,
            n_failures=n_failures,
            average_concurrency=avg_concurrency,
            background_completed=background.completed,
            background_total=len(background.flows),
            backend_stats=backend_stats,
        )


def run_flow_partition_aggregate(
    kind: str,
    config: Optional[PartitionAggregateConfig] = None,
    params: Optional[NetworkParams] = None,
) -> PartitionAggregateResult:
    """One Fig 6 cell on the **fluid backend**: :func:`run_partition_aggregate`
    with ``backend="flow"`` over ``params``."""
    return run_partition_aggregate(
        kind, config, (params or NetworkParams()).with_overrides(backend="flow")
    )


@dataclass
class FigureSixData:
    """Both panels of Fig 6 for one failure level."""

    concurrent_failures: int
    fat_tree: PartitionAggregateResult
    f2tree: PartitionAggregateResult

    @property
    def miss_reduction(self) -> float:
        """The paper's headline: F²Tree reduces deadline misses by >96 %."""
        return reduction_ratio(
            self.fat_tree.deadline_miss_ratio, self.f2tree.deadline_miss_ratio
        )


def run_figure_six(
    concurrent_failures: int = 1,
    config: Optional[PartitionAggregateConfig] = None,
    params: Optional[NetworkParams] = None,
) -> FigureSixData:
    """One failure level of Fig 6, both topologies."""
    config = config or PartitionAggregateConfig.default(concurrent_failures)
    fat = run_partition_aggregate("fat-tree", config, params)
    f2 = run_partition_aggregate("f2tree", config, params)
    return FigureSixData(concurrent_failures, fat, f2)


def render_figure_six(data: List[FigureSixData]) -> str:
    lines = [
        "Fig 6(a): deadline(250 ms)-miss ratio (paper: fat tree 0.4 % @1CF /"
        " 1.6 % @5CF; F2Tree 0 % / ~0.06 %)",
        f"{'CF':>3} {'topology':<10} {'requests':>9} {'miss ratio':>11} "
        f"{'failures':>9} {'avg conc.':>10}",
    ]
    for d in data:
        for r in (d.fat_tree, d.f2tree):
            lines.append(
                f"{d.concurrent_failures:>3} {r.kind:<10} {r.stats.total:>9} "
                f"{r.deadline_miss_ratio:>11.4%} {r.n_failures:>9} "
                f"{r.average_concurrency:>10.2f}"
            )
        lines.append(
            f"    -> F2Tree reduces deadline misses by {d.miss_reduction:.1%}"
        )
    lines.append("")
    lines.append("Fig 6(b): completion-time tail (fraction of requests > t)")
    for d in data:
        for r in (d.fat_tree, d.f2tree):
            tail = ", ".join(
                f">{int(to_milliseconds(t))}ms: {r.stats.fraction_longer_than(t):.4%}"
                for t in (
                    milliseconds(100),
                    milliseconds(200),
                    milliseconds(600),
                    seconds(1),
                )
            )
            lines.append(f"  CF={d.concurrent_failures} {r.kind:<10} {tail}")
    return "\n".join(lines)
