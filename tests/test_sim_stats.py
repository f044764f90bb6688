"""Counters, running statistics, rate meters, histograms."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim import Counter, Histogram, RateMeter, RunningStats


class TestCounter:
    def test_count(self):
        counter = Counter("c")
        counter.count(100)
        counter.count(50)
        assert counter.packets == 2 and counter.bytes == 150

    def test_reset(self):
        counter = Counter("c")
        counter.count(10)
        counter.reset()
        assert counter.metric_values() == {"packets": 0, "bytes": 0}


class TestRunningStats:
    def test_known_values(self):
        stats = RunningStats()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stats.add(value)
        assert stats.count == 8
        assert stats.mean == pytest.approx(5.0)
        assert stats.stdev == pytest.approx(2.138, abs=1e-3)
        assert stats.min == 2.0 and stats.max == 9.0

    def test_empty(self):
        stats = RunningStats()
        assert stats.mean == 0.0 and stats.variance == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_matches_reference(self, values):
        stats = RunningStats()
        for value in values:
            stats.add(value)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
        assert stats.variance == pytest.approx(var, rel=1e-6, abs=1e-3)


class TestRateMeter:
    def test_rate_over_span(self):
        meter = RateMeter()
        meter.observe(0.0, 1250)
        meter.observe(1.0, 1250)
        assert meter.bits_per_second() == pytest.approx(20_000)
        assert meter.packets_per_second() == pytest.approx(2.0)

    def test_explicit_window(self):
        meter = RateMeter()
        meter.observe(0.0, 125_000_000)
        assert meter.bits_per_second(window=1.0) == pytest.approx(1e9)

    def test_empty_meter(self):
        meter = RateMeter()
        assert meter.bits_per_second() == 0.0
        assert meter.span == 0.0

    def test_single_observation_regression(self):
        """One observation has zero span: min_window_s supplies the window.

        Regression: single-packet flows used to report 0.0 bits/s even
        though bytes were delivered.
        """
        meter = RateMeter(min_window_s=0.5)
        meter.observe(3.0, 1250)
        assert meter.bits_per_second() == pytest.approx(20_000)
        assert meter.packets_per_second() == pytest.approx(2.0)

    def test_single_observation_per_call_override(self):
        meter = RateMeter()
        meter.observe(0.0, 1250)
        assert meter.bits_per_second() == 0.0  # no fallback configured
        assert meter.bits_per_second(min_window_s=1.0) == pytest.approx(10_000)

    def test_min_window_never_invents_rate_on_empty_meter(self):
        meter = RateMeter(min_window_s=1.0)
        assert meter.bits_per_second() == 0.0
        assert meter.packets_per_second(min_window_s=0.1) == 0.0

    def test_min_window_ignored_when_span_is_real(self):
        meter = RateMeter(min_window_s=100.0)
        meter.observe(0.0, 1250)
        meter.observe(1.0, 1250)
        assert meter.bits_per_second() == pytest.approx(20_000)

    def test_metric_values(self):
        meter = RateMeter(min_window_s=1.0)
        meter.observe(0.0, 1250)
        values = meter.metric_values()
        assert values["packets"] == 1 and values["bytes"] == 1250
        assert values["bits_per_second"] == pytest.approx(10_000)


class TestHistogram:
    def test_bucketing_and_percentiles(self):
        hist = Histogram([1.0, 10.0, 100.0])
        for value in (0.5, 0.7, 5.0, 50.0, 500.0):
            hist.add(value)
        assert hist.total == 5
        assert hist.percentile(40) == 1.0
        assert hist.percentile(60) == 10.0
        assert hist.percentile(100) == math.inf

    def test_exponential_constructor(self):
        hist = Histogram.exponential(1.0, 2.0, 4)
        assert hist.bounds == [1.0, 2.0, 4.0, 8.0]

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            Histogram([2.0, 1.0])
        with pytest.raises(ConfigError):
            Histogram([])

    def test_invalid_percentile(self):
        hist = Histogram([1.0])
        with pytest.raises(ConfigError):
            hist.percentile(0)
        with pytest.raises(ConfigError):
            hist.percentile(101)

    def test_empty_percentile_zero(self):
        assert Histogram([1.0]).percentile(50) == 0.0

    @given(st.lists(st.floats(0.001, 1e5), min_size=1, max_size=100))
    def test_percentile_monotone(self, values):
        hist = Histogram.exponential(0.001, 4.0, 12)
        for value in values:
            hist.add(value)
        p50, p90, p99 = (hist.percentile(p) for p in (50, 90, 99))
        assert p50 <= p90 <= p99
