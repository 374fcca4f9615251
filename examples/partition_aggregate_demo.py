#!/usr/bin/env python3
"""Partition-aggregate under random failures (the §IV-B experiment).

Front-end DCN traffic — each request fans out to 8 workers and waits for
2 KB responses, deadline 250 ms — runs over an 8-port fat tree and an
8-port F²Tree while links fail randomly (log-normal gaps and durations).

This is the paper's headline application result: F²Tree almost eliminates
deadline misses because its data plane reroutes within the failure
detection delay instead of waiting out OSPF's (exponentially backed-off)
SPF timers.

Run:  python examples/partition_aggregate_demo.py        (scaled, ~30 s)
      REPRO_FULL_SCALE=1 python examples/...             (paper scale)
"""

from repro.campaign.telemetry import percentile
from repro.experiments.partition_aggregate import (
    PartitionAggregateConfig,
    run_partition_aggregate,
)
from repro.sim.units import milliseconds, seconds, to_seconds


def main() -> None:
    config = PartitionAggregateConfig.default(concurrent_failures=1)
    print(
        f"horizon {to_seconds(config.duration):.0f} s, "
        f"{config.n_requests} requests, "
        f"{config.n_background_flows} background flows, "
        f"~1 concurrent random failure\n"
    )
    results = {}
    for kind in ("fat-tree", "f2tree"):
        r = run_partition_aggregate(kind, config)
        results[kind] = r
        print(f"{kind}:")
        print(f"  link failures injected   : {r.n_failures} "
              f"(avg concurrency {r.average_concurrency:.2f})")
        print(f"  deadline (250 ms) misses : {r.deadline_miss_ratio:.3%}")
        for t in (milliseconds(100), milliseconds(600), seconds(1)):
            frac = r.stats.fraction_longer_than(t)
            print(f"  completions > {int(t/1e6):>4} ms    : {frac:.3%}")
        times = sorted(r.stats.completion_times())
        print(f"  99th pct completion      : "
              f"{percentile(times, 99)/1e6:.0f} ms")
        print()

    fat, f2 = results["fat-tree"], results["f2tree"]
    if fat.deadline_miss_ratio > 0:
        reduction = 1 - f2.deadline_miss_ratio / fat.deadline_miss_ratio
        print(f"F2Tree reduces deadline misses by {reduction:.1%} "
              f"(paper: 100% at 1 CF, 96.25% at 5 CF)")


if __name__ == "__main__":
    main()
