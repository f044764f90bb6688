"""FlexSFPModule end-to-end: datapath, arbiter, verdicts, reboot."""

import pytest

from repro.apps import AclFirewall, AclRule, StaticNat, Passthrough
from repro.core import (
    Direction,
    FlexSFPModule,
    MgmtMessage,
    MgmtOp,
    RECONFIG_DOWNTIME_S,
    ShellKind,
    ShellSpec,
    mgmt_frame,
)
from repro.packet import make_udp
from repro.sim import Port, connect
from repro.nfv import Deployment

KEY = b"module-test-key"


def wire_module(sim, module):
    """Attach host/fiber stub ports; return (host, fiber, host_rx, fiber_rx)."""
    host = Port(sim, "host", 10e9)
    fiber = Port(sim, "fiber", 10e9)
    host_rx, fiber_rx = [], []
    host.attach(lambda p, pkt, size, when: host_rx.append(pkt))
    fiber.attach(lambda p, pkt, size, when: fiber_rx.append(pkt))
    connect(host, module.edge_port)
    connect(module.line_port, fiber)
    return host, fiber, host_rx, fiber_rx


class TestDatapath:
    def test_nat_translates_edge_to_line(self, sim):
        nat = StaticNat()
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(sim, "m", Deployment.solo(nat), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        host.send(make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8"))
        sim.run(until=1e-3)
        assert fiber_rx[0].ipv4.src_ip == "198.51.100.1"

    def test_one_way_filter_reverse_is_passthrough(self, sim):
        nat = StaticNat()
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(sim, "m", Deployment.solo(nat), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        # Reverse traffic is NOT untranslated in the one-way shell.
        fiber.send(make_udp(src_ip="8.8.8.8", dst_ip="198.51.100.1"))
        sim.run(until=1e-3)
        assert host_rx[0].ipv4.dst_ip == "198.51.100.1"
        assert module.ppe.processed.packets == 0

    def test_two_way_core_untranslates_reverse(self, sim):
        nat = StaticNat()
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(
            sim, "m", Deployment.solo(nat), shell=ShellSpec(kind=ShellKind.TWO_WAY_CORE), auth_key=KEY
        )
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        fiber.send(make_udp(src_ip="8.8.8.8", dst_ip="198.51.100.1"))
        sim.run(until=1e-3)
        assert host_rx[0].ipv4.dst_ip == "10.0.0.1"
        assert module.ppe.processed.packets == 1

    def test_drop_verdict_counts(self, sim):
        firewall = AclFirewall(default_action="deny")
        module = FlexSFPModule(sim, "m", Deployment.solo(firewall), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        host.send(make_udp())
        sim.run(until=1e-3)
        assert not fiber_rx
        assert module.verdict_drops.packets == 1

    def test_permitted_traffic_flows(self, sim):
        firewall = AclFirewall(default_action="deny")
        firewall.add_rule(AclRule("permit", dst="8.8.8.8", priority=10))
        module = FlexSFPModule(sim, "m", Deployment.solo(firewall), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        host.send(make_udp(dst_ip="8.8.8.8"))
        host.send(make_udp(dst_ip="9.9.9.9"))
        sim.run(until=1e-3)
        assert len(fiber_rx) == 1

    def test_module_latency_is_sub_microsecond(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        sent_at = {}

        def send():
            packet = make_udp(payload=b"x" * 100)
            sent_at["t"] = sim.now
            host.send(packet)

        sim.schedule(0.0, send)
        sim.run(until=1e-3)
        # Wire + PPE + transceiver crossings all well under 1 us.
        assert fiber_rx


class TestManagementPath:
    def test_inline_mgmt_gets_reply(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.HELLO, 1), KEY, "02:00:00:00:00:aa", module.mgmt_mac
        )
        host.send(frame)
        sim.run(until=1e-2)
        assert len(host_rx) == 1
        reply = MgmtMessage.unpack(host_rx[0].payload, KEY)
        assert reply.json_body()["app"] == "passthrough"
        assert not fiber_rx  # control traffic never leaks to the line

    def test_mgmt_does_not_consume_ppe(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.HELLO, 1), KEY, "02:00:00:00:00:aa", module.mgmt_mac
        )
        host.send(frame)
        sim.run(until=1e-2)
        assert module.ppe.processed.packets == 0
        assert module.arbiter.control_fraction() == 1.0

    def test_unauthenticated_mgmt_gets_no_reply(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.HELLO, 1),
            b"bad-key",
            "02:00:00:00:00:aa",
            module.mgmt_mac,
        )
        host.send(frame)
        sim.run(until=1e-2)
        assert not host_rx

    def test_active_shell_has_mgmt_port(self, sim):
        module = FlexSFPModule(
            sim,
            "m",
            Deployment.solo(Passthrough()),
            shell=ShellSpec(kind=ShellKind.ACTIVE_CORE),
            auth_key=KEY,
        )
        assert module.mgmt_port is not None
        controller = Port(sim, "controller", 1e9)
        replies = []
        controller.attach(lambda p, pkt, size, when: replies.append(pkt))
        connect(controller, module.mgmt_port)
        controller.send(
            mgmt_frame(
                MgmtMessage.control(MgmtOp.HELLO, 1), KEY, "02:00:00:00:00:bb", module.mgmt_mac
            )
        )
        sim.run(until=1e-2)
        assert replies and MgmtMessage.unpack(replies[0].payload, KEY).json_body()["ok"]


class TestReboot:
    def test_reboot_downtime_drops_traffic(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        sim.schedule(0.0, module.reboot)
        sim.schedule(RECONFIG_DOWNTIME_S / 2, lambda: host.send(make_udp()))
        sim.run(until=RECONFIG_DOWNTIME_S / 2 + 1e-3)
        assert sim.now in module.dark
        assert module.downtime_drops.packets == 1
        assert not fiber_rx

    def test_traffic_resumes_after_boot(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        sim.schedule(0.0, module.reboot)
        sim.schedule(RECONFIG_DOWNTIME_S + 1e-3, lambda: host.send(make_udp()))
        sim.run(until=RECONFIG_DOWNTIME_S + 1e-2)
        assert sim.now not in module.dark
        assert len(fiber_rx) == 1
        assert module.reboots == 1

    def test_overlapping_reboots_stay_down_until_the_last_window_ends(self, sim):
        """Two reboots 50 ms apart: one dark window, 0 .. +170 ms.

        The second reboot opens its window inside the first one's, so the
        two merge; a frame at +130 ms is dropped on the module window, as
        a tenant slot behind a crossbar drops it on its own.  The
        benchmark's chaos seed 1 has such reboots.
        """
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        sim.schedule(0.0, module.reboot)
        sim.schedule(50e-3, module.reboot)
        seen = []

        def probe():
            seen.append((sim.now in module.dark, sim.now in module.slots[0].dark))
            host.send(make_udp())

        sim.schedule(130e-3, probe)
        sim.run(until=200e-3)
        assert module.dark.start == 0.0
        assert module.dark.until == pytest.approx(50e-3 + RECONFIG_DOWNTIME_S)
        assert module.slots[0].dark.until == module.dark.until
        assert seen == [(True, True)]
        assert module.downtime_drops.packets == 1 and not fiber_rx

    def test_same_app_reboot_keeps_state(self, sim):
        nat = StaticNat()
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(sim, "m", Deployment.solo(nat), auth_key=KEY)
        module.reboot()
        sim.run(until=1.0)
        assert module.app is nat
        assert module.app.nat_table.lookup(0x0A000001) is not None

    def test_jtag_load_golden(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        from repro.hls import compile_app

        build = compile_app(StaticNat(capacity=1024), ShellSpec())
        module.load_via_jtag(build.bitstream, slot=0)
        assert module.flash.load_bitstream(0).app_name == "nat"

    def test_stats_shape(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        stats = module.metric_values()
        assert stats["app"] == "passthrough"
        assert stats["shell"] == "one-way-filter"


class TestBootFallback:
    def test_unreconstructible_app_refuses_boot(self, sim):
        """A bitstream naming an unknown app is refused like a watchdog."""
        from repro.hls import XdpProgram, XdpVerdict, compile_app

        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        program = XdpProgram(
            "custom-program", lambda ctx: XdpVerdict.XDP_PASS
        )
        build = compile_app(program, ShellSpec())
        module.load_via_jtag(build.bitstream, slot=1)
        module.flash.select_boot(1)
        module.reboot()
        sim.run(until=1.0)
        # The module refused the boot and kept the running application.
        assert module.app.name == "passthrough"
        assert module.failed_boots == 1
        assert sim.now not in module.dark


class TestShellVariants:
    def test_one_way_filter_reverse_direction(self, sim):
        """PPE on line->edge: downstream traffic is processed instead."""
        nat = StaticNat()
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        shell = ShellSpec(
            kind=ShellKind.ONE_WAY_FILTER,
            filtered_direction=Direction.LINE_TO_EDGE,
        )
        module = FlexSFPModule(sim, "m", Deployment.solo(nat), shell=shell, auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        # Upstream (edge->line) is now pass-through: no translation.
        host.send(make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8"))
        # Downstream (line->edge) goes through the PPE: reverse-translated.
        fiber.send(make_udp(src_ip="8.8.8.8", dst_ip="198.51.100.1"))
        sim.run(until=1e-3)
        assert fiber_rx[0].ipv4.src_ip == "10.0.0.1"  # untouched upstream
        assert host_rx[0].ipv4.dst_ip == "10.0.0.1"  # untranslated downstream
        assert module.ppe.processed.packets == 1

    def test_boot_falls_back_to_golden_when_slot_wiped(self, sim):
        """Flash corruption of the app slot boots the golden image."""
        from repro.hls import compile_app

        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        build = compile_app(StaticNat(capacity=256), ShellSpec())
        module.load_via_jtag(build.bitstream, slot=1)
        module.flash.select_boot(1)
        # The app slot dies (power loss mid-erase, wear-out, ...).
        module.flash.erase_slot(1)
        module.reboot()
        sim.run(until=1.0)
        # Golden slot holds the original passthrough image: still running.
        assert module.app.name == "passthrough"
        assert module.reboots == 1
