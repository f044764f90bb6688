"""Multi-tenant FlexSFPModule: steering, metrics, partial reconfiguration."""

import pytest

from repro.apps import Passthrough
from repro.artifact.diff import semantic_metrics
from repro.core import FlexSFPModule, RECONFIG_DOWNTIME_S
from repro.errors import ConfigError
from repro.nfv import NFV_SCRUB_DPORT, Deployment, default_nfv_tenants
from repro.obs import MetricsRegistry
from repro.packet import make_udp
from repro.sim import Port, connect

KEY = b"nfv-module-test-key"


def wire(sim, module):
    host = Port(sim, "host", 10e9)
    fiber = Port(sim, "fiber", 10e9)
    host_rx, fiber_rx = [], []
    host.attach(lambda p, pkt, size, when: host_rx.append(pkt))
    fiber.attach(lambda p, pkt, size, when: fiber_rx.append(pkt))
    connect(host, module.edge_port)
    connect(module.line_port, fiber)
    return host, fiber, host_rx, fiber_rx


def make_module(sim, **kwargs):
    return FlexSFPModule(
        sim,
        "m",
        Deployment.from_dicts(default_nfv_tenants()),
        auth_key=KEY,
        **kwargs,
    )


def scrub_frame(**kwargs):
    return make_udp(dport=NFV_SCRUB_DPORT, **kwargs)


class TestConstruction:
    def test_multi_tenant_builds_crossbar_and_slots(self, sim):
        module = make_module(sim)
        assert module.crossbar is not None
        assert [slot.name for slot in module.slots] == ["scrub", "telemetry"]
        assert module.tenant_slot("scrub").app.name == "sanitizer"

    def test_single_tenant_is_a_one_slot_module(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        assert module.crossbar is None
        (slot,) = module.slots
        # The solo slot is the module under its own name: the module's
        # counters and flash, and the views read straight through.
        assert slot.base == "m"
        assert slot.flash is module.flash
        assert slot.verdict_drops is module.verdict_drops
        assert slot.downtime_drops is module.downtime_drops
        assert module.ppe is slot.ppe and module.app is slot.app

    def test_deployment_and_app_conflict(self, sim):
        # ``app=`` is gone; a bare application is not a deployment.
        with pytest.raises(TypeError, match="app"):
            FlexSFPModule(
                sim, "m", Deployment.solo(Passthrough()), app=Passthrough(), auth_key=KEY
            )
        with pytest.raises(ConfigError, match="Deployment.solo"):
            FlexSFPModule(sim, "m", Passthrough(), auth_key=KEY)

    def test_oversubscribed_deployment_rejected_at_init(self, sim):
        deployment = Deployment.from_dicts(
            [
                {"name": "a", "app": "sanitizer",
                 "match": {"udp_dport": 1}, "share": 0.9},
                {"name": "b", "app": "int", "share": 0.9},
            ]
        )
        with pytest.raises(ConfigError, match="over-subscribed"):
            FlexSFPModule(sim, "m", deployment, auth_key=KEY)

    def test_precomputed_build_is_single_tenant_only(self, sim):
        solo = FlexSFPModule(sim, "s", Deployment.solo(Passthrough()), auth_key=KEY)
        with pytest.raises(ConfigError, match="single-tenant"):
            make_module(sim, build=solo.build)


class TestSteering:
    def test_first_match_wins_on_service_port(self, sim):
        module = make_module(sim)
        host, fiber, host_rx, fiber_rx = wire(sim, module)
        host.send(scrub_frame())
        host.send(make_udp(dport=53))
        host.send(make_udp(dport=80))
        sim.run(until=1e-3)
        assert len(fiber_rx) == 3
        scrub = module.tenant_slot("scrub")
        telemetry = module.tenant_slot("telemetry")
        assert module.crossbar.steered[scrub.index].packets == 1
        assert module.crossbar.steered[telemetry.index].packets == 2
        assert scrub.ppe.processed.packets == 1
        assert telemetry.ppe.processed.packets == 2

    def test_unprocessed_direction_bypasses_crossbar(self, sim):
        module = make_module(sim)
        host, fiber, host_rx, fiber_rx = wire(sim, module)
        fiber.send(scrub_frame())
        sim.run(until=1e-3)
        assert len(host_rx) == 1
        assert module.crossbar.steered[0].packets == 0
        assert module.crossbar.steered[1].packets == 0


class TestMetricsIsolation:
    def test_per_tenant_subtrees_never_alias(self, sim):
        module = make_module(sim)
        host, fiber, host_rx, fiber_rx = wire(sim, module)
        host.send(scrub_frame())
        host.send(make_udp(dport=53))
        sim.run(until=1e-3)
        registry = MetricsRegistry()
        module.register_metrics(registry)
        metrics = registry.collect()  # raises on any name collision
        scrub_keys = {k for k in metrics if k.startswith("m.tenant.scrub.")}
        telemetry_keys = {
            k for k in metrics if k.startswith("m.tenant.telemetry.")
        }
        assert scrub_keys and telemetry_keys
        assert not scrub_keys & telemetry_keys
        # Both subtrees publish the same shape (modulo the app name
        # embedded in the PPE metric keys), one namespace per tenant.
        shape_scrub = {
            k[len("m.tenant.scrub."):].replace(".sanitizer.", ".<app>.")
            for k in scrub_keys
        }
        shape_telemetry = {
            k[len("m.tenant.telemetry."):].replace(".int.", ".<app>.")
            for k in telemetry_keys
        }
        assert shape_scrub == shape_telemetry
        assert metrics["m.tenant.scrub.steered.packets"] == 1
        assert metrics["m.tenant.telemetry.steered.packets"] == 1
        assert metrics["m.crossbar.scrub.frames"] == 1.0

    def test_histograms_keyed_per_tenant(self, sim):
        module = make_module(sim)
        host, fiber, host_rx, fiber_rx = wire(sim, module)
        host.send(scrub_frame())
        sim.run(until=1e-3)
        states = module.histogram_states()
        assert set(states) == {
            "m.tenant.scrub.ppe.sanitizer.latency_ns",
            "m.tenant.telemetry.ppe.int.latency_ns",
        }


class TestPartialReconfiguration:
    def test_only_target_slot_goes_dark(self, sim):
        module = make_module(sim)
        host, fiber, host_rx, fiber_rx = wire(sim, module)
        module.reconfigure_tenant("scrub", Passthrough())
        host.send(scrub_frame())
        host.send(make_udp(dport=53))
        sim.run(until=RECONFIG_DOWNTIME_S / 2)
        scrub = module.tenant_slot("scrub")
        telemetry = module.tenant_slot("telemetry")
        # The scrub frame fell into the dark window; telemetry forwarded.
        assert scrub.downtime_drops.packets == 1
        assert telemetry.ppe.processed.packets == 1
        assert len(fiber_rx) == 1

    def test_swapped_slot_comes_back_with_new_app(self, sim):
        module = make_module(sim)
        host, fiber, host_rx, fiber_rx = wire(sim, module)
        module.reconfigure_tenant("scrub", Passthrough())
        sim.run(until=2 * RECONFIG_DOWNTIME_S)
        host.send(scrub_frame())
        sim.run(until=sim.now + 1e-3)
        scrub = module.tenant_slot("scrub")
        assert scrub.app.name == "passthrough"
        assert scrub.reboots == 1
        assert sim.now not in scrub.dark
        assert scrub.ppe.processed.packets == 1
        assert len(fiber_rx) == 1

    def test_announced_reconfiguration_fires_at_time(self, sim):
        module = make_module(sim)
        at = 5e-3
        module.reconfigure_tenant("scrub", Passthrough(), at_s=at)
        scrub = module.tenant_slot("scrub")
        assert scrub.dark.start == at
        assert scrub.app.name == "sanitizer"  # swap has not fired yet
        sim.run(until=at + 1e-6)
        assert scrub.app.name == "passthrough"

    def test_cannot_announce_in_the_past(self, sim):
        module = make_module(sim)
        sim.run(until=1e-3)
        with pytest.raises(ConfigError, match="past"):
            module.reconfigure_tenant("scrub", Passthrough(), at_s=0.5e-3)

    def test_single_tenant_module_has_no_tenant_reconfig(self, sim):
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        with pytest.raises(ConfigError, match="multi-tenant"):
            module.reconfigure_tenant("default", Passthrough())

    def test_unknown_tenant_is_an_error(self, sim):
        module = make_module(sim)
        with pytest.raises(ConfigError, match="no tenant"):
            module.reconfigure_tenant("ghost", Passthrough())


class TestCounterRead:
    """``MgmtOp.COUNTER_READ`` reads the slots, however many there are."""

    def read_counters(self, module) -> dict:
        from repro.core import MgmtMessage, MgmtOp, mgmt_frame

        frame = mgmt_frame(
            MgmtMessage.control(MgmtOp.COUNTER_READ, 1),
            KEY,
            "02:00:00:00:00:bb",
            module.mgmt_mac,
        )
        reply = module.control_plane.handle_frame(frame, module.sim.now)
        assert reply is not None and reply.opcode is MgmtOp.ACK
        return reply.json_body()

    def test_multi_tenant_reply_carries_per_tenant_counters(self, sim):
        # Used to escape ControlPlane.dispatch as an AttributeError
        # (module.ppe was None), which would have killed the event loop.
        module = make_module(sim)
        host, fiber, host_rx, fiber_rx = wire(sim, module)
        host.send(scrub_frame())
        host.send(make_udp(dport=53))
        host.send(make_udp(dport=80))
        sim.run(until=1e-3)
        body = self.read_counters(module)
        assert set(body["tenants"]) == {"scrub", "telemetry"}
        for name, processed in (("scrub", 1), ("telemetry", 2)):
            slot = module.tenant_slot(name)
            assert body["tenants"][name] == {
                "app": slot.app.metric_values(),
                "ppe": semantic_metrics(slot.ppe.metric_values()),
            }
            ppe = body["tenants"][name]["ppe"]
            assert ppe[f"{slot.app.name}.processed.packets"] == processed
