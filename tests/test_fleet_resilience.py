"""Fleet control over an unreliable management network: retries, lossy
discovery, upgrades under loss/flaps, mid-stream death, and rollback."""

import pytest

from repro.apps import VlanTagger
from repro.core import ShellSpec
from repro.core.mgmt import MgmtMessage, MgmtOp, mgmt_frame
from repro.fleet import FleetController
from repro.hls import XdpProgram, XdpVerdict, compile_app
from repro.netem import LossyWire
from repro.sim import Port
from repro.switch import LegacySwitch, PortPolicy, RetrofitPlan, apply_retrofit

KEY = b"fleet-key"


def lossy_fleet(
    sim,
    num_modules=2,
    loss=0.0,
    wire_seed=9,
    **controller_kwargs,
):
    """Fleet-over-switch with an impaired wire splicing in the controller."""
    switch = LegacySwitch(sim, "agg", num_ports=num_modules + 1)
    plan = RetrofitPlan()
    for port in range(1, num_modules + 1):
        plan.assign(port, PortPolicy("passthrough"))
    result = apply_retrofit(sim, switch, plan, auth_key=KEY)
    controller = FleetController(sim, auth_key=KEY, **controller_kwargs)
    wire = LossyWire(
        sim, "mgmt", rate_bps=10e9, loss_probability=loss, seed=wire_seed
    )
    controller.port.connect(wire.a)
    wire.b.connect(switch.external_port(0))
    macs = [result.module_at(p).mgmt_mac for p in sorted(result.modules)]
    return controller, result, macs, wire


class TestRetries:
    def test_retry_after_flap_uses_fresh_seq(self, sim):
        controller, result, macs, wire = lossy_fleet(sim, num_modules=1)
        wire.flap(5e-3)  # the first attempt dies in the dark window
        replies = []
        controller.hello(macs[0], replies.append)
        sim.run(until=0.5)
        assert replies and replies[0]["ok"]
        assert controller.retries.packets >= 1
        assert controller.timeouts.packets == 0
        # Fresh sequence numbers per attempt: nothing looked like a replay.
        assert result.module_at(1).control_plane.replays_rejected == 0

    def test_timeout_counts_once_after_all_retries(self, sim):
        controller, result, macs, wire = lossy_fleet(sim, num_modules=1)
        replies = []
        controller.hello("02:de:ad:00:00:01", replies.append)
        sim.run(until=0.5)
        assert replies == [None]
        assert controller.timeouts.packets == 1
        assert controller.retries.packets == controller.max_retries

    def test_many_hellos_survive_20pct_loss(self, sim):
        controller, result, macs, wire = lossy_fleet(
            sim, num_modules=1, loss=0.2, max_retries=5
        )
        replies = []
        for i in range(10):
            sim.schedule(i * 0.2, controller.hello, macs[0], replies.append)
        sim.run(until=5.0)
        assert len(replies) == 10
        assert all(reply and reply["ok"] for reply in replies)
        assert wire.metric_values()["drops"] > 0  # the loss was real


    @pytest.mark.parametrize("body", [b"not json", b"[]"])
    def test_authenticated_reply_with_garbled_body_is_refused(self, sim, body):
        """An HMAC-valid ACK whose body is not a JSON object is a refused
        frame (it used to raise ControlPlaneError out of ``sim.run()``):
        the request stays pending and its timeout and retries handle it."""
        controller = FleetController(sim, auth_key=KEY)
        peer = Port(sim, "peer", rate_bps=1e9)
        controller.port.connect(peer)
        replies = []
        controller.hello("02:00:00:00:00:09", replies.append)
        garbled = MgmtMessage(MgmtOp.ACK, seq=1, body=body)
        peer.send(mgmt_frame(garbled, KEY, "02:00:00:00:00:09", controller.mac))
        sim.run(until=0.5)
        assert peer.tx.packets == 1 and controller.port.rx.packets == 1
        assert replies == [None]
        assert controller.retries.packets == controller.max_retries
        assert controller.timeouts.packets == 1
        assert controller.naks.packets == 0


class TestLossyDiscovery:
    def test_discovery_finds_all_at_20pct_loss(self, sim):
        controller, result, macs, wire = lossy_fleet(sim, num_modules=3, loss=0.2)
        found = {}
        controller.discover(20e-3, found.update)
        sim.run(until=0.1)
        assert set(found) == set(macs)

    def test_discovery_single_shot_misses_under_loss(self, sim):
        """Control: with repeats=1 the same lossy window loses modules."""
        controller, result, macs, wire = lossy_fleet(
            sim, num_modules=3, loss=0.45, wire_seed=3
        )
        found = {}
        controller.discover(20e-3, found.update, repeats=1)
        sim.run(until=0.1)
        assert len(found) < 3  # motivates the re-broadcast


class TestUpgradeResilience:
    def test_rolling_upgrade_at_20pct_loss(self, sim):
        """Acceptance: discovery+upgrade complete over a 20%-loss link."""
        controller, result, macs, wire = lossy_fleet(
            sim, num_modules=2, loss=0.2, max_retries=6
        )
        build = compile_app(VlanTagger(access_vid=7), ShellSpec())
        reports = []
        controller.rolling_upgrade(
            macs, build.bitstream, slot=1, on_done=reports.append, settle_s=0.3
        )
        sim.run(until=60.0)
        assert reports, "upgrade never completed"
        assert reports[0].ok, reports[0].failed
        assert reports[0].upgraded == macs
        assert reports[0].rolled_back == []
        for port in (1, 2):
            assert result.module_at(port).app.name == "vlan"
        assert controller.retries.packets > 0  # loss made it work for it

    def test_upgrade_survives_flapping_mgmt_network(self, sim):
        controller, result, macs, wire = lossy_fleet(
            sim, num_modules=1, max_retries=6
        )

        # The chunk stream runs at microsecond RTTs, so flap on the same
        # scale: dark a third of the time throughout the whole upgrade.
        def flapper():
            wire.flap(100e-6)
            sim.schedule(300e-6, flapper)

        sim.schedule(50e-6, flapper)
        build = compile_app(VlanTagger(access_vid=7), ShellSpec())
        reports = []
        controller.rolling_upgrade(
            macs, build.bitstream, slot=1, on_done=reports.append, settle_s=0.3
        )
        sim.run(until=60.0)
        assert reports and reports[0].ok, reports and reports[0].failed
        assert result.module_at(1).app.name == "vlan"
        assert wire.a.impairment_drops.packets + wire.b.impairment_drops.packets > 0

    def test_module_dying_mid_chunk_stream_fails_deploy(self, sim):
        controller, result, macs, wire = lossy_fleet(sim, num_modules=1)
        module = result.module_at(1)

        def kill_after_some_chunks():
            if module.control_plane.commands_handled >= 3:
                # Dead for good: no watchdog was armed (hard power fault).
                module.control_plane.crash()
                return
            sim.schedule(10e-6, kill_after_some_chunks)

        sim.schedule(10e-6, kill_after_some_chunks)
        build = compile_app(VlanTagger(access_vid=7), ShellSpec())
        reports = []
        controller.rolling_upgrade(
            macs, build.bitstream, slot=1, on_done=reports.append
        )
        sim.run(until=30.0)
        assert reports and not reports[0].ok
        mac, reason = reports[0].failed[0]
        assert mac == macs[0]
        assert "chunk" in reason or "commit" in reason, reason
        assert reports[0].upgraded == []
        assert module.app.name == "passthrough"  # never rebooted into vlan

    def test_failed_health_probe_triggers_rollback(self, sim):
        """Acceptance: a module that comes back wrong is rolled back."""
        controller, result, macs, wire = lossy_fleet(sim, num_modules=1)
        module = result.module_at(1)
        # A valid, signed bitstream naming an app the module cannot
        # reconstruct: the deploy succeeds, the boot falls back to golden,
        # and the post-upgrade health probe sees the wrong application.
        program = XdpProgram("custom-program", lambda ctx: XdpVerdict.XDP_PASS)
        build = compile_app(program, ShellSpec())
        reports = []
        controller.rolling_upgrade(
            macs, build.bitstream, slot=1, on_done=reports.append, settle_s=0.3
        )
        sim.run(until=30.0)
        assert reports and not reports[0].ok
        report = reports[0]
        assert report.rolled_back == [macs[0]]
        assert report.failed[0][0] == macs[0]
        assert "verification failed" in report.failed[0][1]
        # Rolled back to the pre-upgrade boot slot, still running golden.
        assert module.flash.boot_slot == 0
        assert module.app.name == "passthrough"
        assert module.failed_boots >= 1
