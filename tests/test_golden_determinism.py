"""Golden determinism: identical seeds produce byte-identical stats JSON.

The repo's benchmarks and the fault gauntlet promise reproducibility —
rerunning with the same seed must reproduce every statistic exactly, in
both the reference per-frame engine and the compiled fast engine.
These tests serialize the quick-config stats to canonical JSON and compare
the bytes, which catches any nondeterminism (dict ordering, float drift,
RNG coupling to wall clock) that a field-by-field comparison could mask.

Also here: the regression test for the per-engine enqueue-timestamp bug —
``ppe_enqueue_ns`` must be overwritten (not ``setdefault``) on submit, or
a packet chained through two modules charges the first engine's residency
to the second engine's latency histogram.
"""

import json

from repro.apps import StaticNat
from repro.core import Direction, FlexSFPModule, PacketProcessingEngine, Verdict
from repro.core.ppe import BURST_FRAMES
from repro.faults import run_gauntlet
from repro.fpga import TimingSpec
from repro.netem import CbrSource
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
        from repro.obs import MetricsRegistry, Tracer

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
        # the compiled.* strategy counters the snapshot below includes.
        burst=BURST_FRAMES if compiled else 1,
    )
    sim.run(until=RUN_S + 0.1e-3)
    ppe = module.ppe.snapshot()
    # The one wall-clock value in a snapshot; everything else is simulated.
    ppe.get("compiled", {}).pop("compile_wall_s", None)
    stats = {
        "ppe": ppe,
        "app": module.app.counters_snapshot(),
        "delivered": fiber.rx.snapshot(),
        "edge_drops": module.edge_port.drops.snapshot(),
        "line_tx": module.line_port.tx.snapshot(),
    }
    return json.dumps(stats, sort_keys=True, default=str).encode()


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
        runs = [
            run_gauntlet(seed=23, plan="smoke", duration_s=0.4, traffic_bps=20e6)
            for _ in range(2)
        ]
        first, second = (
            json.dumps(r.to_dict(), sort_keys=True, default=str).encode()
            for r in runs
        )
        assert first == second

    def test_chaos_gauntlet_fastpath_quick_config(self):
        runs = [
            run_gauntlet(
                seed=23,
                plan="smoke",
                duration_s=0.4,
                traffic_bps=20e6,
                engine="compiled",
            )
            for _ in range(2)
        ]
        first, second = (
            json.dumps(r.to_dict(), sort_keys=True, default=str).encode()
            for r in runs
        )
        assert first == second


class TestEnqueueTimestampRegression:
    """``ppe_enqueue_ns`` is stamped per engine, never inherited."""

    def test_stale_stamp_is_overwritten_on_submit(self, sim):
        engine = PacketProcessingEngine(
            sim, StaticNat(capacity=16), TimingSpec(64, 156.25e6)
        )
        packet = make_udp()
        # Simulate a packet that already traversed an upstream engine and
        # carries that engine's (ancient) enqueue stamp.
        packet.meta["ppe_enqueue_ns"] = -1_000_000_000
        engine.submit(packet, Direction.EDGE_TO_LINE, lambda *a: None)
        assert packet.meta["ppe_enqueue_ns"] == int(sim.now * 1e9)
        sim.run()
        # The histogram measured only this engine's residency (< 1 ms),
        # not the billion stale nanoseconds the old setdefault kept (which
        # would overflow every bucket and report an infinite percentile).
        assert engine.latency_ns.total == 1
        assert engine.latency_ns.percentile(100) < 1_000_000

    def test_two_chained_modules_measure_independent_latency(self):
        sim = Simulator()
        first = FlexSFPModule(sim, "sfp-a", Deployment.solo(StaticNat()), auth_key=KEY)
        second = FlexSFPModule(sim, "sfp-b", Deployment.solo(StaticNat()), auth_key=KEY)
        host = Port(sim, "host", 10e9, queue_bytes=1 << 20)
        fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 20)
        connect(host, first.edge_port)
        connect(first.line_port, second.edge_port)
        connect(second.line_port, fiber)
        for _ in range(20):
            host.send(make_udp(payload=b"x" * 100))
        sim.run(until=1e-3)
        for module in (first, second):
            assert module.ppe.latency_ns.total == 20
            assert module.ppe.verdict_counts[Verdict.PASS] == 20
        # Identical engines fed identically-spaced traffic measure the
        # same residency distribution.  Under the old setdefault, the
        # second engine kept the first engine's stamp and its histogram
        # shifted up by the whole cross-module delay.
        assert (
            second.ppe.latency_ns.counts == first.ppe.latency_ns.counts
        ), (first.ppe.latency_ns.snapshot(), second.ppe.latency_ns.snapshot())


class TestVerificationNeutrality:
    """Static verification is read-only: with or without it, the build
    flow emits the exact same artifact and the sim the same statistics."""

    def test_verify_flag_is_bitstream_neutral(self):
        from repro.core import ShellSpec
        from repro.hls import compile_app

        with_verify = compile_app(StaticNat(), ShellSpec())
        without = compile_app(StaticNat(), ShellSpec(), verify=False)
        assert with_verify.bitstream.to_bytes() == without.bitstream.to_bytes()

    def test_verify_flag_is_stats_neutral(self):
        assert nat_linerate_stats("reference") == (
            nat_linerate_stats("reference")
        )
