"""Fleet orchestration: discovery, remote ops, rolling upgrades (§4.1)."""


from repro.apps import AclFirewall, VlanTagger
from repro.core import ShellSpec
from repro.fleet import FleetController, ModuleInfo
from repro.hls import compile_app
from repro.sim import connect
from repro.switch import LegacySwitch, PortPolicy, RetrofitPlan, apply_retrofit

KEY = b"fleet-key"


def fleet_over_switch(sim, num_modules=3):
    """Controller on port 0 of a switch whose other ports hold FlexSFPs."""
    switch = LegacySwitch(sim, "agg", num_ports=num_modules + 1)
    plan = RetrofitPlan()
    for port in range(1, num_modules + 1):
        plan.assign(port, PortPolicy("passthrough"))
    result = apply_retrofit(sim, switch, plan, auth_key=KEY)
    controller = FleetController(sim, auth_key=KEY)
    controller.port.connect(switch.external_port(0))
    macs = [result.module_at(p).mgmt_mac for p in sorted(result.modules)]
    return controller, result, macs


class TestDiscovery:
    def test_broadcast_discovery_finds_all(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=3)
        found = {}
        controller.discover(5e-3, found.update)
        sim.run(until=10e-3)
        assert set(found) == set(macs)
        for info in found.values():
            assert isinstance(info, ModuleInfo)
            assert info.app == "passthrough"
            assert info.device == "MPF200T"

    def test_unicast_hello(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=2)
        replies = []
        controller.hello(macs[0], replies.append)
        sim.run(until=10e-3)
        assert len(replies) == 1 and replies[0]["ok"]

    def test_unicast_only_reaches_target(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=2)
        controller.hello(macs[0], lambda reply: None)
        sim.run(until=10e-3)
        m0 = result.module_at(1)
        m1 = result.module_at(2)
        assert m0.control_plane.commands_handled == 1
        assert m1.control_plane.commands_handled == 0

    def test_timeout_on_dead_address(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=1)
        replies = []
        controller.hello("02:de:ad:00:00:01", replies.append)
        sim.run(until=0.1)
        assert replies == [None]
        assert controller.timeouts.packets == 1


class TestRemoteOps:
    def test_table_add_via_fleet(self, sim):
        switch = LegacySwitch(sim, "agg", num_ports=2)
        plan = RetrofitPlan()
        plan.assign(1, PortPolicy("nat", {"capacity": 64}))
        result = apply_retrofit(sim, switch, plan, auth_key=KEY)
        controller = FleetController(sim, auth_key=KEY)
        controller.port.connect(switch.external_port(0))
        mac = result.module_at(1).mgmt_mac
        replies = []
        controller.table_add(mac, "nat", 0x0A000001, 0xC6336401, replies.append)
        sim.run(until=10e-3)
        assert replies and replies[0]["ok"]
        assert result.module_at(1).app.nat_table.lookup(0x0A000001) == 0xC6336401

    def test_counter_read(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=1)
        replies = []
        controller.counter_read(macs[0], replies.append)
        sim.run(until=10e-3)
        assert replies and set(replies[0]["tenants"]) == {"default"}
        assert replies[0]["tenants"]["default"]["ppe"]["passthrough.processed.packets"] == 0


class TestDeploy:
    def test_deploy_and_reboot(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=1)
        build = compile_app(AclFirewall(capacity=64), ShellSpec())
        outcome = []
        controller.deploy(
            macs[0], build.bitstream, slot=1,
            on_done=lambda ok, reason: outcome.append((ok, reason)),
        )
        sim.run(until=1.0)
        assert outcome and outcome[0][0], outcome
        module = result.module_at(1)
        assert module.app.name == "firewall"
        assert module.reboots == 1

    def test_deploy_store_only(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=1)
        build = compile_app(AclFirewall(capacity=64), ShellSpec())
        outcome = []
        controller.deploy(
            macs[0], build.bitstream, slot=2, reboot=False,
            on_done=lambda ok, reason: outcome.append((ok, reason)),
        )
        sim.run(until=1.0)
        assert outcome == [(True, "stored")]
        module = result.module_at(1)
        assert module.app.name == "passthrough"  # still running the old app
        assert module.flash.load_bitstream(2).app_name == "firewall"

    def test_deploy_bad_signature_fails(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=1)
        build = compile_app(AclFirewall(capacity=64), ShellSpec())
        outcome = []
        controller.deploy(
            macs[0], build.bitstream, slot=1,
            on_done=lambda ok, reason: outcome.append((ok, reason)),
            deploy_key=b"attacker-key",
        )
        sim.run(until=1.0)
        assert outcome and not outcome[0][0]
        assert "commit rejected" in outcome[0][1]


class TestRollingUpgrade:
    def test_upgrades_whole_fleet_in_order(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=3)
        build = compile_app(VlanTagger(access_vid=42), ShellSpec())
        reports = []
        controller.rolling_upgrade(
            macs, build.bitstream, slot=1, on_done=reports.append
        )
        sim.run(until=10.0)
        assert reports, "upgrade never completed"
        report = reports[0]
        assert report.ok
        assert report.upgraded == macs
        for port in (1, 2, 3):
            assert result.module_at(port).app.name == "vlan"
            assert result.module_at(port).app.access_vid == 42

    def test_rollout_stops_on_failure(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=3)
        build = compile_app(VlanTagger(access_vid=42), ShellSpec())
        # Kill the second module's link after the first upgrade finishes.
        second = result.module_at(2)
        reports = []

        def sabotage():
            second.edge_port.disconnect()

        sim.schedule(0.5, sabotage)
        controller.rolling_upgrade(
            macs, build.bitstream, slot=1, on_done=reports.append, settle_s=0.3
        )
        sim.run(until=30.0)
        assert reports
        report = reports[0]
        assert not report.ok
        assert macs[0] in report.upgraded
        assert report.failed and report.failed[0][0] == macs[1]
        # The third module was never touched: canary semantics.
        assert result.module_at(3).app.name == "passthrough"


class TestDeployFailurePaths:
    def test_deploy_to_golden_slot_rejected_at_begin(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=1)
        build = compile_app(AclFirewall(capacity=64), ShellSpec())
        outcome = []
        controller.deploy(
            macs[0], build.bitstream, slot=0,
            on_done=lambda ok, reason: outcome.append((ok, reason)),
        )
        sim.run(until=1.0)
        assert outcome and not outcome[0][0]
        assert "begin rejected" in outcome[0][1]
        assert "golden" in outcome[0][1]
        assert controller.naks.packets >= 1

    def test_sequence_numbers_strictly_increase(self, sim):
        controller, result, macs = fleet_over_switch(sim, num_modules=1)
        seqs = []
        original = controller._next_seq

        def spy():
            seq = original()
            seqs.append(seq)
            return seq

        controller._next_seq = spy
        controller.hello(macs[0], lambda r: None)
        controller.counter_read(macs[0], lambda r: None)
        sim.run(until=0.1)
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Replays rejected: the module saw monotonically increasing seqs.
        assert result.module_at(1).control_plane.replays_rejected == 0
