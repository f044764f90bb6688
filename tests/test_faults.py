"""Fault plans, the injector, and the chaos gauntlet's determinism."""

import pytest

from repro.apps import Passthrough
from repro.artifact.diff import is_semantic_metric
from repro.core import FlexSFPModule
from repro.errors import ConfigError
from repro.faults import (
    ALL_FAULTS,
    LINK_FAULTS,
    NAMED_PLANS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    play_gauntlet,
)
from repro.netem import LossyWire
from repro.nfv import Deployment
from repro.obs.scenario import ScenarioSpec, TrafficProfile

KEY = b"faults-test-key"


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.generate(42, 1.0, links=("l",), modules=("m",), count=12)
        b = FaultPlan.generate(42, 1.0, links=("l",), modules=("m",), count=12)
        assert a.signature() == b.signature()
        assert [e.to_dict() for e in a] == [e.to_dict() for e in b]

    def test_different_seed_differs(self):
        a = FaultPlan.generate(1, 1.0, links=("l",), modules=("m",), count=12)
        b = FaultPlan.generate(2, 1.0, links=("l",), modules=("m",), count=12)
        assert a.signature() != b.signature()

    def test_settle_tail_is_fault_free(self):
        plan = FaultPlan.generate(
            3, 1.0, links=("l",), modules=("m",), count=20, settle_s=0.4
        )
        assert all(event.time_s <= 0.6 for event in plan)

    def test_kinds_filter_restricts_targets(self):
        plan = FaultPlan.generate(
            5, 1.0, links=("l",), modules=("m",), count=10, kinds=LINK_FAULTS
        )
        assert all(event.kind in LINK_FAULTS for event in plan)
        assert all(event.target == "l" for event in plan)

    def test_generated_bitrot_spares_golden(self):
        plan = FaultPlan.generate(
            9, 1.0, modules=("m",), count=30, kinds=("flash_bitrot",)
        )
        assert all(event.params["slot"] != 0 for event in plan)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultEvent(0.1, "meteor_strike", "m")
        with pytest.raises(ConfigError):
            FaultEvent(-0.1, "link_flap", "l")
        with pytest.raises(ConfigError):
            FaultPlan.generate(1, 1.0)  # no targets
        with pytest.raises(ConfigError):
            FaultPlan.generate(1, 0.5, links=("l",), settle_s=0.5)
        with pytest.raises(ConfigError):
            # Module-only kinds but only a link target.
            FaultPlan.generate(1, 1.0, links=("l",), kinds=("softcore_crash",))

    def test_named_plans_are_deterministic(self):
        for name, builder in NAMED_PLANS.items():
            assert builder(5).signature() == builder(5).signature(), name
            assert len(builder(5)) > 0, name
            for event in builder(5):
                assert event.kind in ALL_FAULTS


class TestFaultInjector:
    def _setup(self, sim):
        wire = LossyWire(sim, "wire", rate_bps=10e9, seed=4)
        module = FlexSFPModule(sim, "m", Deployment.solo(Passthrough()), auth_key=KEY)
        injector = FaultInjector(sim)
        injector.register_link("wire", wire)
        injector.register_module("m", module)
        return injector, wire, module

    def test_unregistered_target_fails_fast(self, sim):
        injector, _, _ = self._setup(sim)
        plan = FaultPlan([FaultEvent(0.1, "link_flap", "elsewhere", {"duration_s": 1e-3})])
        with pytest.raises(ConfigError, match="elsewhere"):
            injector.arm(plan)
        assert injector.applied == []

    def test_register_link_requires_burst_api(self, sim):
        injector = FaultInjector(sim)
        with pytest.raises(ConfigError):
            injector.register_link("bogus", object())

    def test_events_fire_on_schedule(self, sim):
        injector, wire, module = self._setup(sim)
        plan = FaultPlan(
            [
                FaultEvent(1e-3, "link_flap", "wire", {"duration_s": 2e-3}),
                FaultEvent(2e-3, "softcore_hang", "m", {"duration_s": 5e-3}),
                FaultEvent(3e-3, "flash_write_fail", "m", {"count": 2}),
                FaultEvent(4e-3, "softcore_crash", "m", {}),
            ]
        )
        injector.arm(plan)
        sim.run(until=0.5)
        assert wire.a.flaps == 1 and wire.b.flaps == 1
        assert module.flash._write_failures_pending == 2
        # The crash was healed by the hardware watchdog.
        assert module.watchdog_reboots == 1
        assert module.control_plane.responsive
        assert len(injector.applied) == 4
        assert injector.metric_values()["by_kind.softcore_crash"] == 1
        # Applied log records actual firing times, in order.
        times = [t for t, _ in injector.applied]
        assert times == sorted(times)
        assert times[0] == pytest.approx(1e-3)

    def test_bitrot_event_corrupts_slot(self, sim):
        injector, _, module = self._setup(sim)
        module.load_via_jtag(module.build.bitstream, slot=1)
        assert module.flash.verify_slot(1)
        injector.arm(
            FaultPlan(
                [FaultEvent(1e-3, "flash_bitrot", "m", {"slot": 1, "nbits": 8, "seed": 3})]
            )
        )
        sim.run(until=0.01)
        assert not module.flash.verify_slot(1)
        assert module.flash.bitrot_events == 1


class TestGauntletDeterminism:
    def test_custom_plan_identical_stats_across_runs(self):
        plan = FaultPlan(
            [
                FaultEvent(0.05, "softcore_crash", "dut", {}),
                FaultEvent(
                    0.10,
                    "link_loss_burst",
                    "line-link",
                    {"duration_s": 10e-3, "probability": 0.5},
                ),
            ],
            seed=19,
        )
        spec = ScenarioSpec(
            kind="chaos", traffic=TrafficProfile(20e6, 512, 0.5), seed=19
        )
        first = play_gauntlet(spec, plan).summary
        second = play_gauntlet(spec, plan).summary
        assert first == second
        assert first["plan"] == "custom"
        assert first["plan_signature"] == plan.signature()
        assert first["faults_applied"] == 2
        assert first["watchdog_reboots"] == 1
        assert first["healthy_at_end"]

    def test_unknown_named_plan_rejected(self):
        with pytest.raises(ConfigError, match="unknown plan"):
            play_gauntlet(ScenarioSpec(kind="chaos"), "not-a-plan")


class TestEveryNamedPlanAcrossTiers:
    @staticmethod
    def _run(plan, engine):
        run = ScenarioSpec(kind="chaos", fault_plan=plan, seed=1, engine=engine).run()
        semantic = {
            name: value
            for name, value in run.metrics().items()
            if is_semantic_metric(name)
        }
        return run.summary, semantic

    @pytest.mark.parametrize("plan", list(NAMED_PLANS))
    def test_the_tiers_agree_on_every_result_and_semantic_leaf(self, plan):
        reference = self._run(plan, "reference")
        compiled = self._run(plan, "compiled")
        assert reference[0] == compiled[0]
        assert reference[0]["packets_sent"] > 0
        differing = {
            name: (reference[1].get(name), compiled[1].get(name))
            for name in reference[1].keys() | compiled[1].keys()
            if reference[1].get(name) != compiled[1].get(name)
        }
        assert not differing
