"""Tests for the partition-aggregate and background workloads
(on a small, healthy network: everything must complete quickly), plus
the pinned packet Fig 6 cell their seeded draws feed."""

from __future__ import annotations

import pytest

from repro.experiments import partition_aggregate as fig6
from repro.experiments.common import build_bundle
from repro.metrics.requests import DEFAULT_DEADLINE
from repro.sim.randomness import RandomStreams
from repro.sim.units import milliseconds, seconds
from repro.topology.fattree import fat_tree
from repro.workloads.background import BackgroundTraffic
from repro.workloads.partition_aggregate import PartitionAggregateWorkload


@pytest.fixture()
def healthy():
    """A fresh converged fabric per test: workloads bind well-known ports
    on every host, so they cannot share a network instance."""
    bundle = build_bundle(fat_tree(4), seed=5)
    bundle.converge()
    return bundle


class TestPartitionAggregate:
    def test_all_requests_complete_without_failures(self, healthy):
        workload = PartitionAggregateWorkload(
            healthy.network, RandomStreams(21), n_requests=30
        )
        start = healthy.sim.now
        workload.schedule(start, seconds(5))
        healthy.sim.run(until=start + seconds(8))
        assert workload.stats.total == 30
        assert all(r.completed_at is not None for r in workload.stats.records)

    def test_no_deadline_misses_on_healthy_fabric(self, healthy):
        workload = PartitionAggregateWorkload(
            healthy.network, RandomStreams(22), n_requests=20
        )
        start = healthy.sim.now
        workload.schedule(start, seconds(3))
        healthy.sim.run(until=start + seconds(6))
        assert workload.stats.deadline_miss_ratio(DEFAULT_DEADLINE) == 0.0

    def test_completions_take_a_few_ms(self, healthy):
        workload = PartitionAggregateWorkload(
            healthy.network, RandomStreams(23), n_requests=10
        )
        start = healthy.sim.now
        workload.schedule(start, seconds(2))
        healthy.sim.run(until=start + seconds(4))
        for record in workload.stats.records:
            assert record.completion_time < milliseconds(20)

    def test_fanout_validated_against_host_count(self):
        bundle = build_bundle(fat_tree(4, hosts_per_tor=1))
        with pytest.raises(ValueError):
            PartitionAggregateWorkload(
                bundle.network, RandomStreams(1), n_requests=1, fanout=100
            )

    def test_fanout_must_be_positive(self, healthy):
        with pytest.raises(ValueError):
            PartitionAggregateWorkload(
                healthy.network, RandomStreams(1), n_requests=1, fanout=0
            )

    def test_zero_requests_schedule_nothing(self, healthy):
        workload = PartitionAggregateWorkload(
            healthy.network, RandomStreams(24), n_requests=0
        )
        start = healthy.sim.now
        workload.schedule(start, seconds(1))
        healthy.sim.run(until=start + seconds(2))
        assert workload.stats.total == 0

    def test_negative_request_count_rejected(self, healthy):
        workload = PartitionAggregateWorkload(
            healthy.network, RandomStreams(25), n_requests=-1
        )
        with pytest.raises(ValueError, match="launch count"):
            workload.schedule(healthy.sim.now, seconds(1))


class TestBackground:
    def test_flows_complete(self, healthy):
        background = BackgroundTraffic(healthy.network, RandomStreams(31))
        start = healthy.sim.now
        background.schedule(20, start, seconds(5))
        healthy.sim.run(until=start + seconds(20))
        assert len(background.flows) == 20
        assert background.completed == 20

    def test_flow_sizes_are_lognormal_spread(self, healthy):
        background = BackgroundTraffic(
            healthy.network, RandomStreams(32), mean_flow_bytes=50_000
        )
        start = healthy.sim.now
        background.schedule(30, start, seconds(5))
        healthy.sim.run(until=start + milliseconds(1))  # launch only
        # flows launch over the horizon; inspect those scheduled so far via
        # the generator state after the full run instead
        healthy.sim.run(until=start + seconds(10))
        sizes = {f.size_bytes for f in background.flows}
        assert len(sizes) > 10  # genuinely random sizes
        assert min(sizes) >= 1448

    def test_src_dst_always_distinct(self, healthy):
        background = BackgroundTraffic(healthy.network, RandomStreams(33))
        start = healthy.sim.now
        background.schedule(25, start, seconds(5))
        healthy.sim.run(until=start + seconds(10))
        assert all(f.src != f.dst for f in background.flows)

    def test_zero_flows_schedule_nothing(self, healthy):
        background = BackgroundTraffic(healthy.network, RandomStreams(34))
        start = healthy.sim.now
        background.schedule(0, start, seconds(1))
        healthy.sim.run(until=start + seconds(2))
        assert background.flows == [] and background.completed == 0

    def test_negative_flow_count_rejected(self, healthy):
        background = BackgroundTraffic(healthy.network, RandomStreams(35))
        with pytest.raises(ValueError, match="launch count"):
            background.schedule(-1, healthy.sim.now, seconds(1))


def test_packet_fig6_cell_is_pinned(monkeypatch):
    """A seeded fat-tree k=4 Fig 6 cell on the packet backend: every
    request's (start, completion) instant, every background transfer,
    the failure count.  Requests and transfers start where the draws put
    them and complete where TCP carried them, so moving any draw — a
    gap, a requester/worker pick, a background endpoint or size — moves
    this pin."""
    carriers = []

    class RecordedBackground(BackgroundTraffic):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            carriers.append(self)

    monkeypatch.setattr(fig6, "BackgroundTraffic", RecordedBackground)
    config = fig6.PartitionAggregateConfig(
        duration=seconds(4), n_requests=10, n_background_flows=5,
        ports=4, seed=3,
    )
    result = fig6.run_partition_aggregate("fat-tree", config)
    assert [(r.started_at, r.completed_at) for r in result.stats.records] == [
        (3_007_618_092, 3_007_922_604),
        (3_439_955_050, 3_640_232_938),
        (3_553_545_133, 3_753_686_221),
        (3_577_473_851, 3_577_763_227),
        (3_735_711_571, 3_935_954_611),
        (4_094_704_086, 4_095_033_206),
        (4_177_814_918, 4_377_956_006),
        (5_944_444_817, 5_944_733_777),
        (6_080_775_593, 6_281_001_417),
        (6_123_210_220, 6_123_522_124),
    ]
    assert result.deadline_miss_ratio == 0.0
    assert result.n_failures == 40
    assert (result.background_completed, result.background_total) == (5, 5)
    (background,) = carriers
    assert [
        (f.src, f.dst, f.size_bytes, f.started_at, f.completed_at)
        for f in background.flows
    ] == [
        ("host-1-0-0", "host-2-1-1", 106_288, 3_284_705_644, 3_285_789_132),
        ("host-3-0-0", "host-0-0-0", 11_055, 3_972_794_679, 3_973_074_351),
        ("host-0-1-0", "host-0-0-0", 40_552, 4_435_627_334, 4_436_085_222),
        ("host-0-0-0", "host-0-1-0", 54_530, 4_908_661_670, 4_909_235_126),
        ("host-3-1-1", "host-1-1-1", 128_103, 5_466_312_875, 5_667_577_123),
    ]
    assert result.backend_stats == {}
