"""ScenarioSpec: the typed front door to every instrumented workload."""

import pytest

from repro.config import Settings
from repro.errors import ConfigError
from repro.obs import (
    SCENARIO_KINDS,
    ScenarioSpec,
    TrafficProfile,
)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ScenarioSpec(kind="warp-drive").validate()

    def test_bad_shards_batch_trace(self):
        for bad in (
            ScenarioSpec(shards=0),
            ScenarioSpec(engine="batched"),
            ScenarioSpec(trace_packets=-1),
        ):
            with pytest.raises(ConfigError):
                bad.validate()

    def test_bad_traffic(self):
        spec = ScenarioSpec(traffic=TrafficProfile(frame_len=10))
        with pytest.raises(ConfigError, match="frame_len"):
            spec.validate()

    def test_unknown_fault_plan(self):
        with pytest.raises(ConfigError, match="fault plan"):
            ScenarioSpec(kind="chaos", fault_plan="meteor").validate()

    def test_all_kinds_registered(self):
        assert set(SCENARIO_KINDS) == {
            "nat-linerate", "nat-chain", "chaos", "fleet-upgrade",
            "nfv-chain", "tenant-churn",
        }


class TestResolution:
    def test_fills_traffic_and_knobs_from_settings(self):
        spec = ScenarioSpec(kind="chaos")
        resolved = spec.resolved(Settings(engine="compiled"))
        assert resolved.traffic == TrafficProfile(
            rate_bps=50e6, frame_len=512, duration_s=1.5
        )
        assert resolved.engine == "compiled"
        assert resolved.fault_plan == "smoke"

    def test_explicit_values_win(self):
        traffic = TrafficProfile(duration_s=0.5)
        spec = ScenarioSpec(traffic=traffic, engine="reference")
        resolved = spec.resolved(Settings(engine="compiled"))
        assert resolved.traffic is traffic
        assert resolved.engine == "reference"

    def test_fully_resolved_spec_is_self(self):
        resolved = ScenarioSpec(kind="chaos").resolved(Settings())
        assert resolved.resolved(Settings()) is resolved

    def test_with_shard_collapses(self):
        spec = ScenarioSpec(seed=1, shards=8)
        single = spec.with_shard(3, seed=42)
        assert (single.seed, single.shards) == (42, 1)

    def test_round_trip_dict(self):
        spec = ScenarioSpec(kind="chaos", shards=4).resolved(Settings())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestRuns:
    def test_nat_linerate_run(self):
        run = ScenarioSpec().run()
        metrics = run.metrics()
        assert metrics["module0.ppe.nat.processed.packets"] > 0
        assert run.summary["kind"] == "nat-linerate"
        assert run.summary["delivered"]["packets"] > 0

    def test_histograms_are_mergeable_states(self):
        run = ScenarioSpec().run()
        states = run.histograms()
        state = states["module0.ppe.nat.latency_ns"]
        assert len(state["counts"]) == len(state["bounds"]) + 1
        assert sum(state["counts"]) > 0

    def test_digest_stable_and_profile_free(self):
        digest = ScenarioSpec().run().digest()
        assert ScenarioSpec().run().digest() == digest
        # The profiler publishes wall-clock metrics; the digest must not
        # see them, or no two runs would ever compare equal.
        assert ScenarioSpec(profile=True).run().digest() == digest

    def test_chaos_run_instrumented(self):
        spec = ScenarioSpec(
            kind="chaos", seed=5,
            traffic=TrafficProfile(rate_bps=50e6, frame_len=512, duration_s=0.4),
        )
        run = spec.run()
        metrics = run.metrics()
        assert run.summary["plan"] == "smoke"
        assert metrics["sink.rx.packets"] > 0
        assert "agg.sfp1.ppe.nat.processed.packets" in metrics
        assert "fleet.retries.packets" in metrics
        assert metrics["faults.applied"] >= 0

    def test_fleet_upgrade_run(self):
        run = ScenarioSpec(kind="fleet-upgrade", seed=2).run()
        assert run.summary["ok"] is True
        assert len(run.summary["upgraded"]) == 2
        assert run.summary["delivered"]["packets"] > 0
        assert run.metrics()["sim.events"] > 0
