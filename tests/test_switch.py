"""Legacy switch, SFP cages, and retrofit machinery."""

import pytest

from repro.apps import VlanTagger
from repro.core import FlexSFPModule, ShellKind
from repro.errors import ConfigError, SimulationError
from repro.packet import VLAN, make_udp
from repro.switch import (
    Host,
    LegacySwitch,
    PortPolicy,
    RetrofitPlan,
    apply_retrofit,
)
from repro.nfv import Deployment


def wire_hosts(sim, switch, count):
    hosts = []
    for i in range(count):
        host = Host(sim, f"h{i}", mac=f"02:00:00:00:00:{i + 1:02x}")
        host.port.connect(switch.external_port(i))
        hosts.append(host)
    return hosts


class TestLearningSwitch:
    def test_floods_unknown_then_forwards(self, sim):
        switch = LegacySwitch(sim, "sw", num_ports=4)
        h0, h1, h2, h3 = wire_hosts(sim, switch, 4)
        h0.send(make_udp(src_mac=h0.port.name and "02:00:00:00:00:01",
                         dst_mac="02:00:00:00:00:02"))
        sim.run(until=1e-3)
        # Unknown destination: flooded to all other ports.
        assert h1.rx_packets == 1 and h2.rx_packets == 1 and h3.rx_packets == 1
        # Reply teaches the switch h1's port; a second send is unicast.
        h1.send(make_udp(src_mac="02:00:00:00:00:02", dst_mac="02:00:00:00:00:01"))
        sim.run(until=2e-3)
        h2_before, h3_before = h2.rx_packets, h3.rx_packets
        h0.send(make_udp(src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02"))
        sim.run(until=3e-3)
        assert h1.rx_packets == 2
        assert h2.rx_packets == h2_before and h3.rx_packets == h3_before
        assert switch.forwarded.packets >= 1

    def test_broadcast_always_floods(self, sim):
        switch = LegacySwitch(sim, "sw", num_ports=3)
        h0, h1, h2 = wire_hosts(sim, switch, 3)
        h0.send(make_udp(src_mac="02:00:00:00:00:01", dst_mac="ff:ff:ff:ff:ff:ff"))
        sim.run(until=1e-3)
        assert h1.rx_packets == 1 and h2.rx_packets == 1

    def test_same_port_filtered(self, sim):
        switch = LegacySwitch(sim, "sw", num_ports=2)
        h0, h1 = wire_hosts(sim, switch, 2)
        h0.send(make_udp(src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02"))
        h1.send(make_udp(src_mac="02:00:00:00:00:02", dst_mac="02:00:00:00:00:01"))
        sim.run(until=1e-3)
        # h0 sends TO its own learned peer normally; now send to self.
        h0.send(make_udp(src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:01"))
        sim.run(until=2e-3)
        assert switch.filtered.packets == 1

    def test_mac_table_bounded(self, sim):
        switch = LegacySwitch(sim, "sw", num_ports=2, mac_table_size=2)
        h0, h1 = wire_hosts(sim, switch, 2)
        for i in range(5):
            h0.send(make_udp(src_mac=0x020000000100 + i, dst_mac="ff:ff:ff:ff:ff:ff"))
        sim.run(until=1e-3)
        assert len(switch.mac_table()) == 2

    def test_needs_two_ports(self, sim):
        with pytest.raises(ConfigError):
            LegacySwitch(sim, "sw", num_ports=1)


class TestCages:
    def test_insert_flexsfp_intercepts_traffic(self, sim):
        switch = LegacySwitch(sim, "sw", num_ports=2)
        tagger = VlanTagger(access_vid=77)
        module = FlexSFPModule(sim, "sfp", Deployment.solo(tagger))
        # Traffic *leaving* the switch through port 0's module gets tagged
        # toward the line... i.e. edge(asic)->line(outside).
        switch.insert_flexsfp(0, module)
        h_out = Host(sim, "outside", mac="02:00:00:00:00:aa")
        h_out.port.connect(switch.external_port(0))
        h_in = Host(sim, "inside", mac="02:00:00:00:00:bb")
        h_in.port.connect(switch.external_port(1))
        h_in.send(make_udp(src_mac="02:00:00:00:00:bb", dst_mac="02:00:00:00:00:aa"))
        sim.run(until=1e-3)
        assert h_out.rx_packets == 1
        assert h_out.received[0].get(VLAN).vid == 77

    def test_cage_occupied_rejected(self, sim):
        switch = LegacySwitch(sim, "sw", num_ports=2)
        switch.insert_flexsfp(0, FlexSFPModule(sim, "a", Deployment.solo(VlanTagger())))
        with pytest.raises(ConfigError, match="already holds"):
            switch.insert_flexsfp(0, FlexSFPModule(sim, "b", Deployment.solo(VlanTagger())))

    def test_insert_requires_unplugged(self, sim):
        switch = LegacySwitch(sim, "sw", num_ports=2)
        host = Host(sim, "h")
        host.port.connect(switch.external_port(0))
        with pytest.raises(SimulationError, match="unplug"):
            switch.insert_flexsfp(0, FlexSFPModule(sim, "m", Deployment.solo(VlanTagger())))

    def test_remove_module(self, sim):
        switch = LegacySwitch(sim, "sw", num_ports=2)
        module = FlexSFPModule(sim, "m", Deployment.solo(VlanTagger()))
        switch.insert_flexsfp(0, module)
        removed = switch.cages[0].remove_module()
        assert removed is module
        assert switch.external_port(0) is switch.cages[0].asic_port


class TestRetrofit:
    def test_apply_retrofit_builds_modules(self, sim):
        switch = LegacySwitch(sim, "agg", num_ports=4)
        plan = RetrofitPlan()
        plan.assign(0, PortPolicy("vlan", {"access_vid": 10}))
        plan.assign(1, PortPolicy("ratelimiter", shell_kind=ShellKind.ONE_WAY_FILTER))
        result = apply_retrofit(sim, switch, plan)
        assert set(result.modules) == {0, 1}
        assert result.module_at(0).app.name == "vlan"
        assert result.module_at(1).shell.kind is ShellKind.ONE_WAY_FILTER
        assert switch.metric_values()["flexsfp_ports"] == 2

    def test_configure_hook(self, sim):
        switch = LegacySwitch(sim, "agg", num_ports=2)
        plan = RetrofitPlan()
        plan.assign(
            0,
            PortPolicy(
                "nat",
                {"capacity": 64},
                configure=lambda app: app.add_mapping("10.0.0.1", "198.51.100.1"),
            ),
        )
        result = apply_retrofit(sim, switch, plan)
        assert result.module_at(0).app.mapping_of("10.0.0.1") == "198.51.100.1"

    def test_duplicate_port_rejected(self):
        plan = RetrofitPlan()
        plan.assign(0, PortPolicy("vlan"))
        with pytest.raises(ConfigError):
            plan.assign(0, PortPolicy("nat"))

    def test_out_of_range_port(self, sim):
        switch = LegacySwitch(sim, "agg", num_ports=2)
        plan = RetrofitPlan()
        plan.assign(5, PortPolicy("vlan"))
        with pytest.raises(ConfigError, match="out of range"):
            apply_retrofit(sim, switch, plan)

    def test_power_bill(self, sim):
        switch = LegacySwitch(sim, "agg", num_ports=4)
        plan = RetrofitPlan()
        for port in range(3):
            plan.assign(port, PortPolicy("passthrough"))
        result = apply_retrofit(sim, switch, plan)
        assert result.total_added_power_w() == pytest.approx(3 * 1.52)
