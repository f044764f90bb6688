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

    def test_a_fault_plan_on_a_kind_that_runs_no_faults_is_refused(self, capsys):
        from repro.cli import main

        for kind in sorted(set(SCENARIO_KINDS) - {"chaos"}):
            with pytest.raises(ConfigError, match=kind):
                ScenarioSpec(kind=kind, fault_plan="linkstorm").validate()
        argv = ["run", "--scenario", "nat-linerate", "--plan", "linkstorm", "--shards", "1"]
        assert main(argv) == 2
        assert "'nat-linerate'" in capsys.readouterr().err

    def test_chaos_rejects_a_profiler_it_would_never_install(self):
        with pytest.raises(ConfigError, match="profile"):
            ScenarioSpec(kind="chaos", profile=True).validate()

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


class TestFramesCarryNoHiddenState:
    """A frame leaves the fabric with the ``meta`` it was built with: its
    times travel as arguments, and only the tracer marks a packet."""

    @staticmethod
    def frames_at_the_sink(monkeypatch, spec, represented=None):
        """Run ``spec`` with a recording sink in place of the counting one;
        ``represented`` (a list) gets the frames each object stands for."""
        from repro.sim.link import Port

        seen = []
        counts = [] if represented is None else represented
        init, attach = Port.__init__, Port.attach

        def record(packet, frames: int = 1) -> None:
            seen.append(packet)
            counts.append(frames)

        def recording_init(port, sim, name, *args, **kwargs):
            init(port, sim, name, *args, **kwargs)
            if name in ("fiber", "sink"):
                port.attach_batch(lambda _port, packet, _size, _when: record(packet))
                # A burst's template is shared, not copied: look at it as is.
                port.attach_burst(
                    lambda _port, template, _size, whens: record(template, len(whens))
                )

        def recording_attach(port, handler):
            # A sink that attaches a handler of its own stays recorded.
            def recorded(_port, packet, size, when):
                record(packet)
                handler(_port, packet, size, when)

            attach(port, recorded if port.name in ("fiber", "sink") else handler)

        monkeypatch.setattr(Port, "__init__", recording_init)
        monkeypatch.setattr(Port, "attach", recording_attach)
        spec.run()
        return seen

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize("kind", ["nat-chain", "nfv-chain", "chaos"])
    def test_untraced_frames_arrive_with_empty_meta(self, monkeypatch, kind, engine):
        represented: list[int] = []
        seen = self.frames_at_the_sink(
            monkeypatch, ScenarioSpec(kind=kind, engine=engine, seed=7), represented
        )
        # Thousands of frames, one object each or (fused nat-chain) a few
        # shared templates standing for a whole burst each.
        assert sum(represented) >= 1000
        assert [frame.meta for frame in seen if frame.meta] == []

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize("kind", ["nat-chain", "nfv-chain", "chaos"])
    def test_traced_frames_carry_only_their_trace_id(self, monkeypatch, kind, engine):
        seen = self.frames_at_the_sink(
            monkeypatch,
            ScenarioSpec(kind=kind, engine=engine, seed=7, trace_packets=4),
        )
        marked = [frame.meta for frame in seen if frame.meta]
        assert all(set(meta) == {"trace_id"} for meta in marked), marked
        ids = {meta["trace_id"] for meta in marked}
        # nfv-chain's third frame is the martian its scrub tenant drops.
        assert ids == ({0, 1, 3} if kind == "nfv-chain" else {0, 1, 2, 3})
        assert len(seen) > 100
