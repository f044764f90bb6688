"""Host-CPU baseline model (§2 acceleration gap)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.testbed import HostCpuPath


class TestCapacity:
    def test_core_pps(self):
        path = HostCpuPath(per_packet_ns=500)
        assert path.core_pps == pytest.approx(2e6)

    def test_cores_needed(self):
        path = HostCpuPath(per_packet_ns=500)
        assert path.cores_needed(4e6) == pytest.approx(2.0)
        assert path.cores_needed(0) == 0.0

    def test_min_frame_10g_infeasible_on_a_server(self):
        # 14.88 Mpps x 600 ns ~= 9 cores of pure packet work: more than an
        # 8-core budget at any sane utilization cap.
        path = HostCpuPath()
        assert not path.feasible(14.88e6)

    def test_moderate_rate_feasible(self):
        path = HostCpuPath()
        assert path.feasible(1e6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            HostCpuPath(per_packet_ns=0)
        with pytest.raises(ConfigError):
            HostCpuPath().cores_needed(-1)
        with pytest.raises(ConfigError):
            HostCpuPath().feasible(1.0, utilization_cap=0)


class TestLatency:
    def test_unloaded_latency_is_service_time(self):
        path = HostCpuPath(per_packet_ns=600)
        assert path.latency_s(0) == pytest.approx(600e-9)

    def test_latency_grows_with_load(self):
        path = HostCpuPath(per_packet_ns=600, cores_available=1)
        light = path.latency_s(0.2e6, cores=1)
        heavy = path.latency_s(1.5e6, cores=1)
        assert light < heavy

    def test_saturation_is_infinite(self):
        path = HostCpuPath(per_packet_ns=600, cores_available=1)
        assert path.latency_s(2e6, cores=1) == math.inf

    @given(st.floats(1e3, 1e6))
    def test_latency_never_below_service(self, pps):
        path = HostCpuPath()
        assert path.latency_s(pps) >= path.per_packet_ns / 1e9


class TestPower:
    def test_power_in_whole_cores(self):
        path = HostCpuPath(per_packet_ns=500, watts_per_core=10)
        assert path.power_w(3e6) == 20.0  # 1.5 cores -> 2 cores

    def test_power_capped_at_budget(self):
        path = HostCpuPath(per_packet_ns=500, cores_available=4, watts_per_core=10)
        assert path.power_w(1e9) == 40.0

    def test_flexsfp_beats_host_power_for_line_rate_filtering(self):
        # The §2 comparison: the same job at 10G/64B costs the host tens
        # of watts (if it can do it at all); the FlexSFP does it at 1.5 W.
        from repro.testbed import FLEXSFP_TOTAL_W

        path = HostCpuPath()
        host_watts = path.power_w(14.88e6)
        assert host_watts > 10 * FLEXSFP_TOTAL_W
