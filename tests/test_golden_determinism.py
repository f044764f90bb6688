"""Golden determinism: identical seeds produce byte-identical stats JSON.

The repo's benchmarks and the fault gauntlet promise reproducibility —
rerunning with the same seed must reproduce every statistic exactly, in
both the reference per-frame engine and the compiled fast engine.
These tests serialize the quick-config stats to canonical JSON and compare
the bytes, which catches any nondeterminism (dict ordering, float drift,
RNG coupling to wall clock) that a field-by-field comparison could mask.

Also here: the regression test for the per-engine enqueue-timestamp bug —
a frame's enqueue time belongs to the engine that admitted it, or a packet
chained through two modules charges the first engine's residency to the
second engine's latency histogram.
"""

import json

from repro.apps import StaticNat
from repro.core import Direction, FlexSFPModule, PacketProcessingEngine, Verdict
from repro.core.ppe import BURST_FRAMES, ReferenceEngine
from repro.fpga import TimingSpec
from repro.netem import CbrSource
from repro.obs import MetricsRegistry, Tracer
from repro.obs.scenario import ScenarioSpec, TrafficProfile
from repro.packet import make_udp
from repro.sim import Port, Simulator, connect
from repro.nfv import Deployment

KEY = b"golden-key"
RUN_S = 0.2e-3


def nat_linerate_stats(engine: str, observe: str | None = None) -> bytes:
    """Quick config of the §5.1 NAT line-rate scenario, stats as JSON.

    ``observe`` optionally attaches the observability layer: ``"registry"``
    registers every component into a MetricsRegistry (collection is pull-
    based and must not perturb anything); ``"tracer-off"`` additionally
    attaches a Tracer whose sampling limit is 0, so the tracing hooks run
    their ``is not None`` guards but admit no packet.
    """
    sim = Simulator()
    nat = StaticNat(capacity=1024)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    module = FlexSFPModule(
        sim, "dut", Deployment.solo(nat), auth_key=KEY, engine=engine
    )
    compiled = engine == "compiled"
    if observe is not None:
        registry = MetricsRegistry()
        module.register_metrics(registry)
        if observe == "tracer-off":
            module.attach_tracer(Tracer(limit=0))
        registry.collect()
    host = Port(sim, "host", 10e9, queue_bytes=1 << 20)
    fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 20)
    connect(host, module.edge_port)
    connect(module.line_port, fiber)
    template = make_udp(src_ip="10.0.0.1", payload=bytes(60 - 42))
    CbrSource(
        sim,
        host,
        rate_bps=10e9,
        frame_len=60,
        stop=RUN_S,
        factory=lambda i, size: template.copy(),
        # Per-frame ingress on both tiers: an attached tracer (even one
        # that admits nothing) deopts template bursts, which would move
        # the compiled.* strategy counters the payload below includes.
        burst=BURST_FRAMES if compiled else 1,
    )
    sim.run(until=RUN_S + 0.1e-3)
    registry = MetricsRegistry()
    module.register_metrics(registry)
    registry.register("fiber", fiber)
    stats = {"metrics": registry.collect(), "app": module.app.metric_values()}
    return json.dumps(stats, sort_keys=True, default=str).encode()


def chaos_quick_config(engine: str | None) -> bytes:
    """Quick config of the chaos gauntlet (smoke plan), its summary as JSON."""
    spec = ScenarioSpec(
        kind="chaos",
        fault_plan="smoke",
        seed=23,
        engine=engine,
        traffic=TrafficProfile(20e6, 512, 0.4),
    )
    return json.dumps(spec.run().summary, sort_keys=True, default=str).encode()


class TestGoldenDeterminism:
    def test_nat_linerate_reference_engine(self):
        first = nat_linerate_stats("reference")
        second = nat_linerate_stats("reference")
        assert first == second

    def test_nat_linerate_fastpath_engine(self):
        first = nat_linerate_stats("compiled")
        second = nat_linerate_stats("compiled")
        assert first == second

    def test_observability_off_reference_engine_byte_identical(self):
        baseline = nat_linerate_stats("reference")
        registered = nat_linerate_stats(
            "reference", observe="registry"
        )
        tracer_off = nat_linerate_stats(
            "reference", observe="tracer-off"
        )
        assert registered == baseline
        assert tracer_off == baseline

    def test_observability_off_fastpath_engine_byte_identical(self):
        baseline = nat_linerate_stats("compiled")
        registered = nat_linerate_stats(
            "compiled", observe="registry"
        )
        tracer_off = nat_linerate_stats(
            "compiled", observe="tracer-off"
        )
        assert registered == baseline
        assert tracer_off == baseline

    def test_chaos_gauntlet_quick_config(self):
        assert chaos_quick_config(None) == chaos_quick_config(None)

    def test_chaos_gauntlet_fastpath_quick_config(self):
        assert chaos_quick_config("compiled") == chaos_quick_config("compiled")


class TestEnqueueTimestampRegression:
    """A frame's enqueue time is per engine, never inherited: it lives in the
    engine's own frame tuple, not on the packet."""

    def test_stale_stamp_is_overwritten_on_submit(self, sim):
        """Whatever an upstream hop left on the packet, this submit's arrival
        is the enqueue time: ``meta`` is neither read nor written."""
        for engine_cls in (ReferenceEngine, PacketProcessingEngine):
            app = StaticNat(capacity=16)
            depth = app.pipeline_spec().pipeline_depth
            engine = engine_cls(sim, app, TimingSpec(64, 156.25e6), depth)
            packet = make_udp()
            # The key a pre-PR-24 engine stamped, a billion ns in the past.
            packet.meta["ppe_enqueue_ns"] = -1_000_000_000
            engine.submit(
                packet, Direction.EDGE_TO_LINE, lambda *a: None, sim.now, packet.wire_len
            )
            sim.run()
            # The histogram measured only this engine's residency (< 1 ms);
            # a billion stale nanoseconds would overflow every bucket and
            # report an infinite percentile.
            assert engine.latency_ns.total == 1
            assert engine.latency_ns.percentile(100) < 1_000_000
            assert packet.meta == {"ppe_enqueue_ns": -1_000_000_000}

    def test_two_chained_modules_measure_independent_latency(self):
        """The first hop queues for far longer than the second's whole
        residency; each engine's histogram and each traced ``ppe`` span
        measures its own hop."""
        for engine in ("reference", "compiled"):
            sim = Simulator()
            tracer = Tracer()
            modules = [
                FlexSFPModule(
                    sim, name, Deployment.solo(StaticNat()), auth_key=KEY,
                    device_id=index, engine=engine,
                )
                for index, name in enumerate(("sfp-a", "sfp-b"))
            ]  # fmt: skip
            first, second = modules
            for module in modules:
                module.attach_tracer(tracer)
            # A 40G host overruns the first PPE (a queue builds); the first
            # module's 10G line port then paces the second below its
            # service rate (no queue at all).
            host = Port(sim, "host", 40e9, queue_bytes=1 << 20)
            fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 20)
            connect(host, first.edge_port)
            connect(first.line_port, second.edge_port)
            connect(second.line_port, fiber)
            for _ in range(20):
                host.send(make_udp(payload=b"x" * 100))
            sim.run(until=1e-3)
            for module in modules:
                assert module.ppe.latency_ns.total == 20
                assert module.ppe.verdict_counts[Verdict.PASS] == 20
            # Second hop: twenty identical bare residencies, one bucket.
            # Had it inherited the first hop's enqueue time, it would have
            # spread at least as wide as the first.
            occupied = [
                [i for i, count in enumerate(module.ppe.latency_ns.counts) if count]
                for module in modules
            ]
            assert len(occupied[1]) == 1 and len(occupied[0]) > 3, (engine, occupied)
            assert occupied[0][-1] > occupied[1][0] + 2
            residency = {"ppe0": [], "ppe1": []}
            for trace_id in tracer.trace_ids():
                hops = [s for s in tracer.spans_for(trace_id) if s.stage == "ppe"]
                assert [s.component for s in hops] == ["ppe0", "ppe1"]
                assert hops[1].start_ns > hops[0].end_ns
                for span in hops:
                    residency[span.component].append(span.end_ns - span.start_ns)
            assert len(residency["ppe1"]) == 20
            assert max(residency["ppe1"]) - min(residency["ppe1"]) <= 1  # ns rounding
            assert max(residency["ppe0"]) > 5 * max(residency["ppe1"]), engine


class TestVerificationNeutrality:
    """Static verification is read-only: the checked build flow emits the
    exact artifact an unchecked pipeline build emits."""

    def test_verification_is_bitstream_neutral(self):
        from repro.core import ShellSpec
        from repro.hls import compile_app, compile_pipeline

        app = StaticNat()
        checked = compile_app(app, ShellSpec())
        unchecked = compile_pipeline(
            app.pipeline_spec(), ShellSpec(), app_params=app.config(), verify=False
        )
        assert checked.bitstream.to_bytes() == unchecked.bitstream.to_bytes()
