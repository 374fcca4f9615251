"""Unit tests for time units and seeded random streams."""

from __future__ import annotations


import pytest
from hypothesis import given, strategies as st

from repro.sim.randomness import RandomStreams, lognormal_from_mean_sigma
from repro.sim.units import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    microseconds,
    milliseconds,
    seconds,
    to_microseconds,
    to_milliseconds,
    to_seconds,
    transmission_delay,
)


class TestUnits:
    def test_constants_nest(self):
        assert MILLISECOND == 1000 * MICROSECOND
        assert SECOND == 1000 * MILLISECOND

    def test_conversions(self):
        assert microseconds(5) == 5_000
        assert milliseconds(60) == 60_000_000
        assert seconds(2) == 2_000_000_000

    def test_fractional_conversions_round(self):
        assert microseconds(0.5) == 500
        assert milliseconds(0.25) == 250_000

    def test_roundtrip(self):
        assert to_microseconds(microseconds(123)) == 123
        assert to_milliseconds(milliseconds(60)) == 60
        assert to_seconds(seconds(600)) == 600

    def test_paper_frame_serialization(self):
        # a 1500-byte frame at 1 Gbps serializes in exactly 12 us
        assert transmission_delay(1500, 1.0) == microseconds(12)

    def test_faster_links_are_proportionally_quicker(self):
        assert transmission_delay(1500, 10.0) == microseconds(1.2)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            transmission_delay(1500, 0)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_transmission_delay_monotone_in_size(self, size):
        assert transmission_delay(size + 1, 1.0) >= transmission_delay(size, 1.0)

    @given(
        st.integers(min_value=1, max_value=100_000),
        st.sampled_from([0.1, 1.0, 2.5, 10.0, 40, 100]),
    )
    def test_memoised_transmission_delay_equals_uncached(self, size, rate):
        uncached = transmission_delay.__wrapped__(size, rate)
        assert transmission_delay(size, rate) == uncached
        assert transmission_delay(size, rate) == uncached  # now a hit
        assert type(transmission_delay(size, rate)) is int

    def test_bad_rate_rejected_on_every_call(self):
        # an exception is not memoised
        for _ in range(2):
            with pytest.raises(ValueError):
                transmission_delay(1500, -1.0)


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42).stream("x")
        b = RandomStreams(42).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        x = streams.stream("x").random()
        # drawing from y must not perturb x's sequence
        streams2 = RandomStreams(42)
        streams2.stream("y").random()
        assert streams2.stream("x").random() == x

    def test_different_seeds_differ(self):
        assert RandomStreams(1).stream("x").random() != RandomStreams(2).stream(
            "x"
        ).random()

    def test_stream_is_cached(self):
        streams = RandomStreams(7)
        assert streams.stream("a") is streams.stream("a")


class TestLogNormal:
    def test_arithmetic_mean_calibration(self):
        rng = RandomStreams(3).stream("ln")
        samples = [lognormal_from_mean_sigma(rng, 100.0, 1.0) for _ in range(20000)]
        mean = sum(samples) / len(samples)
        assert 90 < mean < 110  # matches the requested arithmetic mean

    def test_all_positive(self):
        rng = RandomStreams(3).stream("ln2")
        assert all(
            lognormal_from_mean_sigma(rng, 5.0, 2.0) > 0 for _ in range(100)
        )

    def test_rejects_nonpositive_mean(self):
        rng = RandomStreams(3).stream("ln3")
        with pytest.raises(ValueError):
            lognormal_from_mean_sigma(rng, 0.0, 1.0)

    def test_heavier_sigma_spreads(self):
        rng = RandomStreams(3).stream("ln4")
        narrow = [lognormal_from_mean_sigma(rng, 100.0, 0.1) for _ in range(2000)]
        wide = [lognormal_from_mean_sigma(rng, 100.0, 2.0) for _ in range(2000)]
        assert max(wide) > max(narrow)
        assert min(wide) < min(narrow)
