"""PPE runtime: queueing server behaviour, verdicts, overload.

Every case runs against both engines: the fast engine under the historical
test names, the reference oracle through the ``*Oracle`` subclasses.
"""

import pytest

from repro.core import Direction, PacketProcessingEngine, ReferenceEngine, Verdict
from repro.core.ppe import PPEApplication, PPEContext
from repro.errors import SimulationError
from repro.fpga import TimingSpec
from repro.hls.ir import PipelineSpec, Stage, StageKind
from repro.packet import Packet, make_udp, pad_to_min


class EchoApp(PPEApplication):
    """Test double: configurable verdict, records contexts."""

    name = "echo"

    def __init__(self, verdict=Verdict.PASS, emit_extra=False):
        super().__init__()
        self.verdict = verdict
        self.emit_extra = emit_extra
        self.seen: list[PPEContext] = []

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        self.seen.append(ctx)
        if self.emit_extra:
            ctx.emit(make_udp(payload=b"extra"), Direction.EDGE_TO_LINE)
        return self.verdict

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name="echo",
            stages=[Stage("parse", StageKind.PARSER, {"header_bytes": 14})],
        )


class BadApp(EchoApp):
    def process(self, packet, ctx):
        return "not-a-verdict"


def _depth(app) -> int:
    return app.pipeline_spec().pipeline_depth


def run_one(engine_cls, sim, app, packet=None, direction=Direction.EDGE_TO_LINE):
    engine = engine_cls(sim, app, TimingSpec(64, 156.25e6), _depth(app))
    results = []
    packet = packet or make_udp()
    engine.submit(
        packet,
        direction,
        lambda pkt, verdict, emitted, size, at: results.append((pkt, verdict, emitted)),
        sim.now,
        packet.wire_len,
    )
    sim.run()
    return engine, results


class TestProcessing:
    engine_cls = PacketProcessingEngine

    def test_pass_verdict_delivered(self, sim):
        engine, results = run_one(self.engine_cls, sim, EchoApp())
        assert results[0][1] is Verdict.PASS
        assert engine.verdict_counts[Verdict.PASS] == 1

    def test_emitted_packets_passed_through(self, sim):
        _, results = run_one(self.engine_cls, sim, EchoApp(emit_extra=True))
        emitted = results[0][2]
        assert len(emitted) == 1
        assert emitted[0][1] is Direction.EDGE_TO_LINE

    def test_context_fields(self, sim):
        app = EchoApp()
        run_one(self.engine_cls, sim, app, direction=Direction.LINE_TO_EDGE)
        ctx = app.seen[0]
        assert ctx.direction is Direction.LINE_TO_EDGE
        assert ctx.time_ns >= 0

    def test_bad_verdict_raises(self, sim):
        with pytest.raises(SimulationError, match="Verdict"):
            run_one(self.engine_cls, sim, BadApp())

    def test_latency_includes_service_and_pipeline(self, sim):
        app = EchoApp()
        engine = self.engine_cls(sim, app, TimingSpec(64, 156.25e6), _depth(app))
        done_at = []
        engine.submit(
            pad_to_min(make_udp()),
            Direction.EDGE_TO_LINE,
            lambda *a: done_at.append(sim.now),
            sim.now,
            60,
        )
        sim.run()
        service = TimingSpec(64, 156.25e6).frame_service_time(60)
        pipeline = engine.pipeline_latency_s
        assert done_at[0] == pytest.approx(service + pipeline, rel=1e-9)


class TestQueueing:
    engine_cls = PacketProcessingEngine

    def test_fifo_order_preserved(self, sim):
        app = EchoApp()
        engine = self.engine_cls(sim, app, TimingSpec(64, 156.25e6), _depth(app))
        order = []
        for i in range(5):
            packet = make_udp(payload=bytes([i]) * 10)
            engine.submit(
                packet,
                Direction.EDGE_TO_LINE,
                lambda pkt, v, e, size, at: order.append(pkt.payload[0]),
                sim.now,
                packet.wire_len,
            )
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_overload_drops_when_queue_full(self, sim):
        app = EchoApp()
        engine = self.engine_cls(
            sim, app, TimingSpec(64, 156.25e6), _depth(app), queue_bytes=200
        )
        accepted = sum(
            engine.submit(
                make_udp(payload=b"x" * 120),
                Direction.EDGE_TO_LINE,
                lambda *a: None,
                sim.now,
                162,
            )
            for _ in range(5)
        )
        assert accepted < 5
        assert engine.overload_drops.packets == 5 - accepted

    def test_throughput_bounded_by_service_rate(self, sim):
        # Offer 2x what a 64b/156.25MHz PPE can chew through; roughly half
        # must be dropped at the ingress FIFO.
        app = EchoApp()
        engine = self.engine_cls(
            sim, app, TimingSpec(64, 156.25e6), _depth(app), queue_bytes=4096
        )
        interval = TimingSpec(64, 156.25e6).frame_service_time(60) / 2
        count = 2000

        def offer(i=0):
            if i >= count:
                return
            engine.submit(
                pad_to_min(make_udp()), Direction.EDGE_TO_LINE, lambda *a: None, sim.now, 60
            )
            sim.schedule(interval, offer, i + 1)

        offer()
        sim.run()
        processed = engine.processed.packets
        dropped = engine.overload_drops.packets
        assert processed + dropped == count
        assert 0.45 < processed / count < 0.6

    def test_stats_shape(self, sim):
        engine, _ = run_one(self.engine_cls, sim, EchoApp())
        stats = engine.metric_values()
        prefix = engine.app.name
        assert stats[f"{prefix}.processed.packets"] == 1
        assert f"{prefix}.verdicts.pass" in stats
        assert f"{prefix}.latency_ns.p99" in stats


class TestProcessingOracle(TestProcessing):
    engine_cls = ReferenceEngine


class TestQueueingOracle(TestQueueing):
    engine_cls = ReferenceEngine
