"""Timing model: the clock × width arithmetic behind §5.1 and §5.3."""

import pytest

from repro.errors import TimingError
from repro.fpga import (
    PROTOTYPE_TIMING,
    TimingSpec,
    required_clock_hz,
    required_width_bits,
)


class TestPrototypeOperatingPoint:
    def test_64b_at_156mhz_is_10g_raw(self):
        assert PROTOTYPE_TIMING.raw_throughput_bps == pytest.approx(10e9)

    def test_sustains_10g_at_every_standard_frame_size(self):
        for size in (60, 64, 128, 256, 512, 1024, 1514):
            assert PROTOTYPE_TIMING.sustains_line_rate(10e9, size), size

    def test_worst_case_scan_passes(self):
        _, sustained = PROTOTYPE_TIMING.worst_case_frame(10e9)
        assert sustained

    def test_does_not_sustain_20g(self):
        assert not PROTOTYPE_TIMING.sustains_line_rate(20e9, 60)


class TestTimingSpec:
    def test_cycles_per_frame(self):
        spec = TimingSpec(64, 156.25e6)
        # 64 B framed (60 + FCS) = 8 beats + 1 bubble.
        assert spec.cycles_per_frame(60) == 9
        assert spec.cycles_per_frame(1514) == 191

    def test_frame_service_time(self):
        spec = TimingSpec(64, 156.25e6)
        assert spec.frame_service_time(60) == pytest.approx(9 / 156.25e6)

    def test_effective_throughput_below_raw(self):
        spec = TimingSpec(64, 156.25e6)
        assert spec.effective_throughput_bps(60) < spec.raw_throughput_bps

    def test_validation(self):
        with pytest.raises(TimingError):
            TimingSpec(0, 1e6)
        with pytest.raises(TimingError):
            TimingSpec(63, 1e6)  # not a byte multiple
        with pytest.raises(TimingError):
            TimingSpec(64, 0)
        for clock in (float("nan"), float("inf")):
            with pytest.raises(TimingError):
                TimingSpec(64, clock)


class TestRequiredClock:
    def test_10g_on_64b_needs_under_156(self):
        needed = required_clock_hz(10e9, 64)
        assert needed <= 156.25e6
        assert needed == pytest.approx(9 / 67.2e-9, rel=1e-6)

    def test_two_way_20g_on_64b_needs_more_than_156(self):
        # The Figure 1b discussion: Two-Way-Core needs a faster PPE clock.
        needed = required_clock_hz(20e9, 64)
        assert 156.25e6 < needed <= 312.5e6

    def test_100g_on_64b_is_impractical_but_512b_works(self):
        # §5.3: scale by widening the datapath.
        needed_64 = required_clock_hz(100e9, 64)
        assert needed_64 > 1e9  # impossible on a 28nm fabric
        needed_512 = required_clock_hz(100e9, 512)
        assert needed_512 < 450e6

    def test_invalid_width(self):
        with pytest.raises(TimingError):
            required_clock_hz(10e9, 63)


class TestRequiredWidth:
    def test_10g_at_156mhz_needs_64b(self):
        assert required_width_bits(10e9, 156.25e6) == 64

    def test_100g_at_312mhz(self):
        width = required_width_bits(100e9, 312.5e6)
        assert width >= 256
        assert TimingSpec(width, 312.5e6).sustains_line_rate(100e9, 60)

    def test_impossible_raises(self):
        with pytest.raises(TimingError):
            required_width_bits(100e9, 1e6, max_width_bits=128)
