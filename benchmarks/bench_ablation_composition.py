"""Ablation — compose functions in one PPE vs chain separate modules.

§5.3 scopes FlexSFP to "composed L2-L4 functions ... keeping chains
compact (about 3-4 stages)".  Composition has two physical realizations:

* **one module**, members fused into a single pipeline (:class:`AppChain`),
* **two modules in series** on the cable, each running one function.

This bench builds NAT+firewall both ways and compares fabric cost, module
power, and measured end-to-end latency: fusing shares the shell, parser,
and buffer (cheaper, faster), while chaining modules buys independent
upgrade/failure domains — a real deployment trade-off the paper implies.
"""


from common import report
from repro.apps import AclFirewall, AclRule, AppChain, StaticNat
from repro.core import FlexSFPModule
from repro.packet import make_udp
from repro.sim import Port, Simulator, connect
from repro.testbed import flexsfp_power_w
from repro.nfv import Deployment

KEY = b"bench-key"
PACKETS = 50


def make_members():
    nat = StaticNat(capacity=1024)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    firewall = AclFirewall(default_action="permit")
    firewall.add_rule(AclRule("deny", dst="9.9.9.9", priority=10))
    return nat, firewall


def run_fused() -> dict:
    sim = Simulator()
    nat, firewall = make_members()
    chain = AppChain([nat, firewall], name="nat+fw")
    module = FlexSFPModule(sim, "fused", Deployment.solo(chain), auth_key=KEY)
    latency = _measure_latency(sim, [module])
    build = module.build
    return {
        "deployment": "one module (fused chain)",
        "total_lut": build.report.total.lut4,
        "modules": 1,
        "power_w": flexsfp_power_w(
            build.report.total, build.report.timing.clock_hz
        ),
        "latency_us": latency * 1e6,
    }


def run_chained_modules() -> dict:
    sim = Simulator()
    nat, firewall = make_members()
    m1 = FlexSFPModule(sim, "m1", Deployment.solo(nat), auth_key=KEY)
    m2 = FlexSFPModule(sim, "m2", Deployment.solo(firewall), auth_key=KEY)
    latency = _measure_latency(sim, [m1, m2])
    total_lut = m1.build.report.total.lut4 + m2.build.report.total.lut4
    power = sum(
        flexsfp_power_w(m.build.report.total, m.build.report.timing.clock_hz)
        for m in (m1, m2)
    )
    return {
        "deployment": "two modules in series",
        "total_lut": total_lut,
        "modules": 2,
        "power_w": power,
        "latency_us": latency * 1e6,
    }


def _measure_latency(sim: Simulator, modules: list[FlexSFPModule]) -> float:
    host = Port(sim, "host", 10e9, queue_bytes=1 << 20)
    sink = Port(sim, "sink", 10e9)
    latencies: list[float] = []
    sink.attach(lambda p, pkt, size, when: latencies.append(sim.now - pkt.meta["t0"]))
    connect(host, modules[0].edge_port)
    for upstream, downstream in zip(modules, modules[1:]):
        connect(upstream.line_port, downstream.edge_port)
    connect(modules[-1].line_port, sink)

    def send(i: int) -> None:
        packet = make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8", payload=bytes(470))
        packet.meta["t0"] = sim.now
        host.send(packet)

    for i in range(PACKETS):
        sim.schedule(i * 10e-6, send, i)
    sim.run(until=10e-3)
    assert len(latencies) == PACKETS
    return sum(latencies) / len(latencies)


def compute():
    return [run_fused(), run_chained_modules()]


def test_composition_ablation(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    report(
        "Ablation: NAT+firewall fused in one PPE vs two modules in series",
        ("deployment", "modules", "total LUT", "power W", "latency us"),
        [
            (
                r["deployment"],
                r["modules"],
                r["total_lut"],
                f"{r['power_w']:.2f}",
                f"{r['latency_us']:.2f}",
            )
            for r in rows
        ],
    )
    fused, chained = rows
    # Fusing shares the shell/parser/buffer: cheaper in fabric, roughly
    # half the power (one set of optics + one FPGA), and lower latency
    # (one store-and-forward instead of two).
    assert fused["total_lut"] < 0.7 * chained["total_lut"]
    assert fused["power_w"] < 0.6 * chained["power_w"]
    assert fused["latency_us"] < chained["latency_us"]
