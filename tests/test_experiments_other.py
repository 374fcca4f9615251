"""Integration: Fig 7 (Leaf-Spine / VL2), Fig 6 smoke, and ablations."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    count_c4_loops,
    run_detection_delay_sweep,
    run_four_across_c7,
    run_spf_timer_sweep,
)
from repro.experiments.other_topologies import figure_seven_topology, run_figure_seven
from repro.experiments.partition_aggregate import (
    PartitionAggregateConfig,
    run_partition_aggregate,
)
from repro.sim.units import milliseconds, seconds


@pytest.fixture(scope="module")
def fig7():
    return {row.kind: row for row in run_figure_seven()}


class TestFigureSeven:
    def test_plain_fabrics_wait_for_control_plane(self, fig7):
        assert fig7["leaf-spine"].connectivity_loss_ms > 250
        assert fig7["vl2"].connectivity_loss_ms > 250
        assert not fig7["leaf-spine"].fast_rerouted
        assert not fig7["vl2"].fast_rerouted

    def test_f2_adaptations_fast_reroute(self, fig7):
        assert 55 < fig7["f2-leaf-spine"].connectivity_loss_ms < 75
        assert 55 < fig7["f2-vl2"].connectivity_loss_ms < 75
        assert fig7["f2-leaf-spine"].fast_rerouted
        assert fig7["f2-vl2"].fast_rerouted

    def test_packet_loss_reduced(self, fig7):
        assert fig7["f2-vl2"].packets_lost < fig7["vl2"].packets_lost / 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            figure_seven_topology("clos")


class TestFigureSixSmoke:
    """A miniature Fig 6 cell: F²Tree must not be worse than fat tree."""

    @pytest.fixture(scope="class")
    def tiny_config(self):
        return PartitionAggregateConfig(
            duration=seconds(20), n_requests=60, n_background_flows=20,
            concurrent_failures=1, seed=13,
        )

    @pytest.fixture(scope="class")
    def results(self, tiny_config):
        fat = run_partition_aggregate("fat-tree", tiny_config)
        f2 = run_partition_aggregate("f2tree", tiny_config)
        return fat, f2

    def test_all_requests_issued(self, results):
        fat, f2 = results
        assert fat.stats.total == 60 and f2.stats.total == 60
        # the packet run has no fluid model to report on
        assert fat.backend_stats == {} and f2.backend_stats == {}

    def test_f2tree_misses_no_more_deadlines(self, results):
        fat, f2 = results
        assert f2.deadline_miss_ratio <= fat.deadline_miss_ratio

    def test_failures_were_injected(self, results):
        fat, f2 = results
        assert fat.n_failures > 0 and f2.n_failures > 0

    def test_background_flows_mostly_complete(self, results):
        fat, f2 = results
        for r in (fat, f2):
            assert r.background_completed >= 0.9 * r.background_total


class TestAblations:
    def test_fat_tree_outage_tracks_spf_timer(self):
        points = run_spf_timer_sweep(delays=(milliseconds(50), milliseconds(400)))
        short, long_ = points
        # fat tree recovery moves with the timer...
        assert long_.fat_tree_loss_ms - short.fat_tree_loss_ms > 250
        # ...while F2Tree stays pinned at the detection delay
        assert abs(long_.f2tree_loss_ms - short.f2tree_loss_ms) < 10

    def test_f2tree_outage_equals_detection_delay(self):
        points = run_detection_delay_sweep(
            delays=(milliseconds(10), milliseconds(60))
        )
        for point in points:
            assert point.f2tree_loss_ms == pytest.approx(
                point.detection_delay_ms, abs=3
            )

    def test_four_across_ports_survive_c7(self):
        two, four = run_four_across_c7()
        assert not two.fast_rerouted
        assert four.fast_rerouted
        assert four.connectivity_loss_ms < two.connectivity_loss_ms / 3

    def test_prefix_length_tie_break_prevents_loops(self):
        """§II-B: the longer-prefix-rightward rule is loop-free under C4;
        an equal-prefix ECMP pair loops for some flows."""
        clean = count_c4_loops("prefix-length", n_flows=48)
        assert clean.flows_looping == 0
        assert clean.flows_delivered == 48
        flawed = count_c4_loops("none", n_flows=48)
        assert flawed.flows_looping > 0
