"""The activity-based power model behind the §5 experiment.

The §5 readings themselves are checked in ``tests/test_paper_claims.py``."""

import pytest

from repro.errors import ConfigError
from repro.fpga import ResourceVector
from repro.testbed import (
    NIC_BASELINE_W,
    PLAIN_SFP_TOTAL_W,
    PowerTestbed,
    fpga_power_w,
    optics_power_w,
)

class TestModelBehaviour:
    def test_optics_activity_scaling(self):
        assert optics_power_w(0.0) < optics_power_w(1.0)
        assert optics_power_w(1.0) == pytest.approx(PLAIN_SFP_TOTAL_W)

    def test_activity_out_of_range(self):
        with pytest.raises(ConfigError):
            optics_power_w(1.5)

    def test_fpga_idle_floor(self, nat_build):
        idle = fpga_power_w(nat_build.total, nat_build.timing.clock_hz, activity=0.0)
        busy = fpga_power_w(nat_build.total, nat_build.timing.clock_hz, activity=1.0)
        assert 0 < idle < busy

    def test_power_rises_with_activity(self, nat_build):
        testbed, clock_hz = PowerTestbed(), nat_build.timing.clock_hz
        watts = [
            testbed.measure_flexsfp(nat_build.total, clock_hz, activity).watts
            for activity in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert watts == sorted(watts)

    def test_power_scales_with_clock(self, nat_build):
        slow = fpga_power_w(nat_build.total, 156.25e6)
        fast = fpga_power_w(nat_build.total, 312.5e6)
        assert fast > slow

    def test_power_scales_with_design_size(self, nat_build):
        small = fpga_power_w(ResourceVector(lut4=10_000, usram=50), nat_build.timing.clock_hz)
        assert small < fpga_power_w(nat_build.total, nat_build.timing.clock_hz)

    def test_invalid_clock(self):
        with pytest.raises(ConfigError):
            fpga_power_w(ResourceVector(lut4=1), 0)

    def test_invalid_baseline(self):
        with pytest.raises(ConfigError):
            PowerTestbed(nic_baseline_w=0)

    def test_baseline_constant_exported(self):
        assert PowerTestbed().measure_bare().watts == NIC_BASELINE_W
