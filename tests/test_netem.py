"""Traffic generators and flow workloads."""

import pytest

from repro.errors import ConfigError
from repro.netem import (
    CbrSource,
    FlowSetGenerator,
    ImixSource,
    PoissonSource,
    flow_packets,
)
from repro.sim import Port, RateMeter, Simulator, connect


def sink_port(sim, name="sink"):
    port = Port(sim, name, 10e9)
    meter = RateMeter(name)
    sizes = []

    def on_rx(p, packet, size, when):
        meter.observe(when, size)
        sizes.append(size)

    port.attach(on_rx)
    return port, meter, sizes


class TestCbr:
    def test_achieves_target_rate(self, sim):
        tx = Port(sim, "tx", 10e9, queue_bytes=1 << 22)
        rx, meter, _ = sink_port(sim)
        connect(tx, rx)
        CbrSource(sim, tx, rate_bps=1e9, frame_len=1514, stop=10e-3)
        sim.run(until=11e-3)
        # Wire rate 1 Gbps -> goodput fraction 1514/1538.
        assert meter.bits_per_second() == pytest.approx(1e9 * 1514 / 1538, rel=0.02)

    def test_count_limited(self, sim):
        tx = Port(sim, "tx", 10e9)
        rx, meter, _ = sink_port(sim)
        connect(tx, rx)
        source = CbrSource(sim, tx, rate_bps=1e9, frame_len=512, count=7)
        sim.run()
        assert source.sent.packets == 7
        assert meter.total_packets == 7

    def test_invalid_rate(self, sim):
        with pytest.raises(ConfigError):
            CbrSource(sim, Port(sim, "x"), rate_bps=0)

    def test_line_rate_min_frames(self, sim):
        tx = Port(sim, "tx", 10e9, queue_bytes=1 << 22)
        rx, meter, _ = sink_port(sim)
        connect(tx, rx)
        CbrSource(sim, tx, rate_bps=10e9, frame_len=60, stop=0.2e-3)
        sim.run(until=0.3e-3)
        assert meter.packets_per_second() == pytest.approx(14.88e6, rel=0.02)


class TestPoisson:
    def test_mean_rate(self, sim):
        tx = Port(sim, "tx", 10e9, queue_bytes=1 << 22)
        rx, meter, _ = sink_port(sim)
        connect(tx, rx)
        PoissonSource(sim, tx, rate_bps=2e9, frame_len=1514, stop=20e-3, seed=7)
        sim.run(until=21e-3)
        assert meter.bits_per_second() == pytest.approx(2e9 * 1514 / 1538, rel=0.1)

    def test_seeded_determinism(self, sim):
        def run(seed):
            local = Simulator()
            tx = Port(local, "tx", 10e9, queue_bytes=1 << 22)
            rx = Port(local, "rx", 10e9)
            arrivals = []
            rx.attach(lambda p, pkt, size, when: arrivals.append(local.now))
            connect(tx, rx)
            PoissonSource(local, tx, rate_bps=1e9, frame_len=512, count=50, seed=seed)
            local.run()
            return arrivals

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestImix:
    def test_size_mix(self, sim):
        tx = Port(sim, "tx", 10e9, queue_bytes=1 << 22)
        rx, _, sizes = sink_port(sim)
        connect(tx, rx)
        ImixSource(sim, tx, rate_bps=2e9, count=1200, seed=11)
        sim.run()
        small = sum(1 for s in sizes if s == 60)
        large = sum(1 for s in sizes if s == 1514)
        # Standard IMIX: 7/12 small, 1/12 large.
        assert small / len(sizes) == pytest.approx(7 / 12, abs=0.06)
        assert large / len(sizes) == pytest.approx(1 / 12, abs=0.04)

    def test_invalid_mix(self, sim):
        with pytest.raises(ConfigError):
            ImixSource(sim, Port(sim, "x"), rate_bps=1e9, mix=[(64, 0)])


class TestFlowSet:
    def test_deterministic(self):
        a = FlowSetGenerator(seed=5).generate(100)
        b = FlowSetGenerator(seed=5).generate(100)
        assert a == b

    def test_heavy_tail(self):
        flows = FlowSetGenerator(seed=1, mean_flow_bytes=20_000).generate(2000)
        sizes = sorted((f.total_bytes for f in flows), reverse=True)
        top_decile = sum(sizes[: len(sizes) // 10])
        # Uniform flow sizes would put ~10% of bytes in the top decile; a
        # Pareto(1.3) workload concentrates several times that.
        assert top_decile / sum(sizes) > 0.4

    def test_subscriber_space(self):
        generator = FlowSetGenerator(num_subscribers=4, seed=2)
        flows = generator.generate(200)
        sources = {f.src_ip for f in flows}
        assert len(sources) <= 4

    def test_flows_sorted_by_start(self):
        flows = FlowSetGenerator(seed=3).generate(50)
        starts = [f.start_s for f in flows]
        assert starts == sorted(starts)

    def test_flow_packets_expansion(self):
        flows = FlowSetGenerator(seed=4).generate(5)
        flow = flows[0]
        packets = flow_packets(flow, mtu_payload=1000)
        assert sum(len(p.payload) for p in packets) == flow.total_bytes
        assert all(p.ipv4.src_ip == flow.src_ip for p in packets)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FlowSetGenerator(num_subscribers=0)
        with pytest.raises(ConfigError):
            FlowSetGenerator(pareto_alpha=0.9)
        with pytest.raises(ConfigError):
            flow_packets(FlowSetGenerator().generate(1)[0], mtu_payload=0)
