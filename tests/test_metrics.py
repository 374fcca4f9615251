"""Tests for the measurement layer (time series and request metrics)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.campaign.telemetry import percentile
from repro.metrics.requests import (
    DEFAULT_DEADLINE,
    RequestRecord,
    RequestStats,
    reduction_ratio,
)
from repro.metrics.timeseries import (
    ThroughputBin,
    connectivity_gaps,
    connectivity_loss_duration,
    pre_failure_average,
    render_throughput,
    throughput_collapse_duration,
    throughput_series,
)
from repro.sim.units import milliseconds, seconds


def cbr_deliveries(start, end, interval, size=1448):
    """Constant-bit-rate delivery records."""
    return [(t, size) for t in range(start, end, interval)]


class TestThroughputSeries:
    def test_bins_cover_window(self):
        bins = throughput_series([], 0, milliseconds(100), milliseconds(20))
        assert len(bins) == 5
        assert bins[0].start == 0 and bins[-1].start == milliseconds(80)

    def test_bytes_assigned_to_right_bin(self):
        deliveries = [(milliseconds(25), 100), (milliseconds(45), 200)]
        bins = throughput_series(deliveries, 0, milliseconds(60), milliseconds(20))
        assert [b.bytes for b in bins] == [0, 100, 200]

    def test_out_of_window_ignored(self):
        deliveries = [(milliseconds(999), 100)]
        bins = throughput_series(deliveries, 0, milliseconds(40), milliseconds(20))
        assert sum(b.bytes for b in bins) == 0

    def test_total_bytes_conserved(self):
        deliveries = cbr_deliveries(0, milliseconds(100), 100_000)
        bins = throughput_series(deliveries, 0, milliseconds(100))
        assert sum(b.bytes for b in bins) == sum(n for _, n in deliveries)

    def test_mbps(self):
        # 1448 B per 100 us = ~115.84 Mbps
        deliveries = cbr_deliveries(0, milliseconds(20), 100_000)
        bins = throughput_series(deliveries, 0, milliseconds(20))
        assert bins[0].mbps == pytest.approx(115.84, rel=0.01)

    def test_bad_bin_width_rejected(self):
        with pytest.raises(ValueError):
            throughput_series([], 0, 100, 0)

    def test_empty_window_yields_no_bins(self):
        deliveries = [(milliseconds(1), 100)]
        assert throughput_series(deliveries, milliseconds(10), milliseconds(10)) == []
        assert throughput_series(deliveries, milliseconds(10), milliseconds(5)) == []

    def test_mbps_derivation(self):
        # 125 B in a 1 ms bin = 1000 bits / 1e-3 s = 1 Mbps exactly
        assert ThroughputBin(0, milliseconds(1), 125).mbps == pytest.approx(1.0)

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10_000_000),
        st.integers(min_value=1, max_value=10_000),
    ), max_size=50))
    def test_conservation_property(self, deliveries):
        bins = throughput_series(deliveries, 0, 10_000_001, 1_000_000)
        assert sum(b.bytes for b in bins) == sum(n for _, n in deliveries)


class TestConnectivityLoss:
    def arrivals(self, *segments):
        """Concatenate (start, end, interval) arrival runs."""
        times = []
        for start, end, interval in segments:
            times.extend(range(start, end, interval))
        return times

    def test_no_gap_returns_zero(self):
        times = self.arrivals((0, seconds(1), 100_000))
        assert connectivity_loss_duration(times, milliseconds(500)) == 0

    def test_gap_measured_between_last_and_first(self):
        times = self.arrivals(
            (0, milliseconds(100), 100_000),
            (milliseconds(360), milliseconds(500), 100_000),
        )
        loss = connectivity_loss_duration(times, milliseconds(100))
        # last arrival at 99.9 ms, first after at 360 ms
        assert loss == milliseconds(360) - (milliseconds(100) - 100_000)

    def test_gaps_before_failure_ignored(self):
        times = self.arrivals(
            (0, milliseconds(50), 100_000),
            (milliseconds(200), milliseconds(300), 100_000),  # early gap
            (milliseconds(700), milliseconds(800), 100_000),  # the outage
        )
        loss = connectivity_loss_duration(times, milliseconds(350))
        assert loss == pytest.approx(milliseconds(400), rel=0.01)

    def test_connectivity_gaps_lists_all(self):
        times = self.arrivals(
            (0, milliseconds(10), 1_000_000),
            (milliseconds(100), milliseconds(110), 1_000_000),
        )
        gaps = connectivity_gaps(times, milliseconds(5))
        assert len(gaps) == 1

    def test_sub_threshold_gap_is_noise(self):
        times = [0, milliseconds(3), milliseconds(6)]
        assert connectivity_loss_duration(times, 0, threshold=milliseconds(5)) == 0


class TestCollapse:
    def test_clean_flow_has_no_collapse(self):
        deliveries = cbr_deliveries(0, seconds(1), 100_000)
        assert throughput_collapse_duration(
            deliveries, 0, milliseconds(500), seconds(1)
        ) == 0

    def test_outage_measured(self):
        deliveries = cbr_deliveries(0, milliseconds(400), 100_000)
        deliveries += cbr_deliveries(milliseconds(600), seconds(1), 100_000)
        collapse = throughput_collapse_duration(
            deliveries, 0, milliseconds(400), seconds(1)
        )
        assert collapse == milliseconds(200)

    def test_half_rate_counts_as_collapse(self):
        deliveries = cbr_deliveries(0, milliseconds(400), 100_000)
        deliveries += cbr_deliveries(milliseconds(400), seconds(1), 300_000)
        collapse = throughput_collapse_duration(
            deliveries, 0, milliseconds(400), seconds(1)
        )
        assert collapse == seconds(1) - milliseconds(400)  # never recovers

    def test_pre_failure_average_needs_bins(self):
        with pytest.raises(ValueError):
            pre_failure_average(
                throughput_series([], 0, milliseconds(20)), milliseconds(1)
            )

    def test_render_marks_failure(self):
        deliveries = cbr_deliveries(0, milliseconds(200), 100_000)
        bins = throughput_series(deliveries, 0, milliseconds(200))
        text = render_throughput(bins, failure_time=milliseconds(100))
        assert "failure" in text
        assert "Mbps" in text

    def test_render_no_bins(self):
        assert render_throughput([]) == "(no data)"

    def test_render_all_zero_bins_says_so(self):
        bins = throughput_series([], 0, milliseconds(100))
        text = render_throughput(bins)
        assert text == "(no traffic in any bin)"


class TestRequestStats:
    def make(self, times_ms, incomplete=0, censored_at=None):
        stats = RequestStats(censored_at=censored_at)
        for t in times_ms:
            stats.records.append(
                RequestRecord(started_at=0, completed_at=milliseconds(t))
            )
        for _ in range(incomplete):
            stats.records.append(RequestRecord(started_at=0))
        return stats

    def test_miss_ratio(self):
        stats = self.make([100, 200, 300, 400])
        assert stats.deadline_miss_ratio(milliseconds(250)) == 0.5

    def test_default_deadline_is_250ms(self):
        assert DEFAULT_DEADLINE == milliseconds(250)

    def test_empty_stats(self):
        assert RequestStats().deadline_miss_ratio() == 0.0

    def test_incomplete_without_censoring_excluded(self):
        stats = self.make([100], incomplete=3)
        assert len(stats.completion_times()) == 1

    def test_censoring_counts_incomplete_as_slow(self):
        stats = self.make([100], incomplete=1, censored_at=seconds(10))
        assert stats.deadline_miss_ratio() == 0.5

    def test_cdf_monotone_and_complete(self):
        stats = self.make([300, 100, 200])
        cdf = stats.cdf()
        assert [p for _, p in cdf] == pytest.approx([1 / 3, 2 / 3, 1.0])
        assert [t for t, _ in cdf] == sorted(t for t, _ in cdf)

    def test_tail_cdf(self):
        stats = self.make([50, 150, 250])
        tail = stats.tail_cdf_above(milliseconds(100))
        assert len(tail) == 2
        assert all(t > milliseconds(100) for t, _ in tail)

    def test_fraction_longer_than(self):
        stats = self.make([50, 150, 250, 350])
        assert stats.fraction_longer_than(milliseconds(200)) == 0.5

    def test_percentile(self):
        # request tails use the campaign's nearest-rank convention
        times = sorted(self.make([100, 200, 300, 400, 500]).completion_times())
        assert percentile(times, 20) == milliseconds(100)
        assert percentile(times, 100) == milliseconds(500)
        assert percentile(times, 50) == milliseconds(300)
        # nearest rank, not round(q/100 * (n-1)): at n = 40 p50 is the 20th
        assert percentile(list(range(1, 41)), 50) == 20

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile(sorted(RequestStats().completion_times()), 50)

    def test_reduction_ratio(self):
        assert reduction_ratio(0.4, 0.01) == pytest.approx(0.975)
        assert reduction_ratio(0.0, 0.0) == 0.0
