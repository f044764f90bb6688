"""Boot watchdog: golden fallback, degraded pass-through, softcore liveness."""

import pytest

from repro.apps import AclFirewall, Passthrough, StaticNat
from repro.core import (
    RECONFIG_DOWNTIME_S,
    FlexSFPModule,
    MgmtMessage,
    MgmtOp,
    ShellSpec,
    mgmt_frame,
)
from repro.errors import FlashError
from repro.hls import compile_app
from repro.packet import make_udp
from repro.core.module import TRANSCEIVER_LATENCY_S
from repro.sim import Port, connect
from repro.sim.link import DEFAULT_PROPAGATION_S
from repro.sim.mac import serialization_time
from repro.nfv import Deployment

KEY = b"watchdog-test-key"


def wire_module(sim, module):
    host = Port(sim, "host", 10e9)
    fiber = Port(sim, "fiber", 10e9)
    host_rx, fiber_rx = [], []
    host.attach(lambda p, pkt, size, when: host_rx.append(pkt))
    fiber.attach(lambda p, pkt, size, when: fiber_rx.append(pkt))
    connect(host, module.edge_port)
    connect(module.line_port, fiber)
    return host, fiber, host_rx, fiber_rx


def hello_body(module):
    reply = module.control_plane.dispatch(
        MgmtMessage.control(MgmtOp.HELLO, module.control_plane.last_seq + 1)
    )
    return reply.json_body()


class TestGoldenFallback:
    def test_corrupt_app_slot_falls_back_to_golden(self, sim):
        """Acceptance: corrupt app-slot boot → golden, zero crash."""
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        build = compile_app(AclFirewall(capacity=64), ShellSpec())
        module.load_via_jtag(build.bitstream, slot=1)
        module.flash.select_boot(1)
        module.flash.corrupt_bits(1, nbits=16, seed=5)
        module.reboot()  # must not raise
        sim.run(until=1.0)
        assert module.app.name == "passthrough"  # golden image
        assert module.failed_boots == 1
        assert not module.degraded
        assert sim.now not in module.dark
        assert module.reboots == 1

    def test_fallback_module_still_forwards(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        build = compile_app(AclFirewall(capacity=64), ShellSpec())
        module.load_via_jtag(build.bitstream, slot=1)
        module.flash.select_boot(1)
        module.flash.corrupt_bits(1, nbits=16, seed=5)
        module.reboot()
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        sim.schedule(RECONFIG_DOWNTIME_S + 1e-3, host.send, make_udp())
        sim.run(until=1.0)
        assert len(fiber_rx) == 1

    def test_reboot_survives_flash_write_failure_residue(self, sim):
        """A slot left part-programmed by a failed write is a boot CRC miss."""
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        build = compile_app(AclFirewall(capacity=64), ShellSpec())
        module.flash.inject_write_failures(1)
        with pytest.raises(FlashError):
            module.flash.store_bitstream(1, build.bitstream)
        assert module.flash.write_failures == 1
        # The half-programmed slot is not bootable, but reboot still works.
        module.reboot()
        sim.run(until=1.0)
        assert module.app.name == "passthrough"
        assert not module.degraded

    def test_hello_reports_failed_boots(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        build = compile_app(AclFirewall(capacity=64), ShellSpec())
        module.load_via_jtag(build.bitstream, slot=1)
        module.flash.select_boot(1)
        module.flash.corrupt_bits(1, nbits=16, seed=5)
        module.reboot()
        sim.run(until=1.0)
        body = hello_body(module)
        assert body["failed_boots"] == 1
        assert body["degraded"] is False


class TestDegradedPassthrough:
    def _degrade(self, sim, app=None):
        module = FlexSFPModule(sim, "m", Deployment.solo(app or StaticNat()), auth_key=KEY)
        module.flash.corrupt_bits(0, nbits=16, seed=5)  # golden rots
        module.reboot()
        return module

    def test_both_slots_unusable_enters_degraded(self, sim):
        module = self._degrade(sim)
        sim.run(until=1.0)
        assert module.degraded
        assert module.failed_boots == 1
        assert module.metric_values()["degraded"] is True

    def test_degraded_forwards_both_directions(self, sim):
        """Acceptance: both-slots-corrupt module still forwards line<->edge."""
        nat = StaticNat()
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = self._degrade(sim, app=nat)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        start = RECONFIG_DOWNTIME_S + 1e-3
        sim.schedule(start, host.send, make_udp(src_ip="10.0.0.1"))
        sim.schedule(start, fiber.send, make_udp(src_ip="8.8.8.8"))
        sim.run(until=1.0)
        assert len(fiber_rx) == 1 and len(host_rx) == 1
        # Pass-through means *no processing*: NAT did not translate.
        assert fiber_rx[0].ipv4.src_ip == "10.0.0.1"
        assert module.ppe.processed.packets == 0
        assert module.degraded_forwarded.packets == 2

    def test_degraded_latency_is_transceiver_only(self, sim):
        module = self._degrade(sim)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        received_at = []
        fiber.attach(lambda p, pkt, size, when: received_at.append(sim.now))
        start = RECONFIG_DOWNTIME_S + 1e-3
        frame = make_udp(payload=b"x")
        sim.schedule(start, host.send, frame)
        sim.run(until=1.0)
        # Two wire hops (host -> module, module -> sink) and, between them,
        # exactly one transceiver crossing: no PPE residency, no merge stage.
        hop_s = serialization_time(frame.wire_len, 10e9) + DEFAULT_PROPAGATION_S
        assert len(received_at) == 1
        assert received_at[0] - start - 2 * hop_s == pytest.approx(
            TRANSCEIVER_LATENCY_S, abs=1e-12
        )
        assert module.degraded_forwarded.packets == 1

    def test_degraded_hello_reports_degraded(self, sim):
        module = self._degrade(sim)
        sim.run(until=1.0)
        body = hello_body(module)
        assert body["ok"] and body["degraded"] is True

    def test_degraded_mgmt_still_reachable_over_the_wire(self, sim):
        module = self._degrade(sim)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.HELLO, 1),
            KEY,
            "02:0c:00:00:00:0f",
            module.mgmt_mac,
        )
        sim.schedule(RECONFIG_DOWNTIME_S + 1e-3, host.send, frame)
        sim.run(until=1.0)
        assert len(host_rx) == 1  # the ACK came back out the edge port
        reply = MgmtMessage.unpack(host_rx[0].payload, KEY)
        assert reply.json_body()["degraded"] is True

    def test_fresh_image_reboots_out_of_degraded(self, sim):
        module = self._degrade(sim)
        sim.run(until=1.0)
        assert module.degraded
        module.load_via_jtag(module.build.bitstream, slot=1)
        module.flash.select_boot(1)
        module.reboot()
        sim.run(until=2.0)
        assert not module.degraded
        assert module.app.name == "nat"


class TestSoftcoreWatchdog:
    def test_crash_is_healed_by_watchdog_reboot(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        module.crash_softcore()
        assert not module.control_plane.responsive
        # A crashed softcore answers nothing.
        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.HELLO, 1),
            KEY,
            "02:0c:00:00:00:0f",
            module.mgmt_mac,
        )
        assert module.control_plane.handle_frame(frame, module.sim.now) is None
        assert module.control_plane.frames_while_unresponsive == 1
        sim.run(until=module.watchdog_timeout_s + RECONFIG_DOWNTIME_S + 1e-3)
        assert module.control_plane.responsive
        assert module.watchdog_reboots == 1
        assert module.reboots == 1
        assert module.metric_values()["watchdog_reboots"] == 1

    def test_hang_recovers_without_reboot(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        module.hang_softcore(5e-3)
        assert not module.control_plane.responsive
        sim.run(until=10e-3)
        assert module.control_plane.responsive
        assert module.watchdog_reboots == 0
        assert module.reboots == 0

    def test_watchdog_does_not_fire_after_manual_recovery(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        module.crash_softcore()
        module.control_plane.revive()  # e.g. an operator power-cycle won
        sim.run(until=1.0)
        assert module.watchdog_reboots == 0

    def test_latency_stamp_not_applied_when_down(self, sim):
        """Downtime drops still counted while rebooting after a crash."""
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        host, fiber, host_rx, fiber_rx = wire_module(sim, module)
        module.crash_softcore()
        sim.schedule(
            module.watchdog_timeout_s + 1e-3, host.send, make_udp()
        )  # mid-downtime
        sim.run(until=1.0)
        assert module.downtime_drops.packets == 1
        assert fiber_rx == []
