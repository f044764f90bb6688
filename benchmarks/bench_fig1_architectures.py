"""Figure 1 — the three FlexSFP shell architectures, compared.

For each shell (One-Way-Filter, Two-Way-Core, Active-Control-Plane) this
bench builds the NAT application and reports: base-shell resources, the
PPE clock the build flow selects, and — functionally — the fraction of
bidirectional line-rate traffic each configuration delivers.  The paper's
Figure 1b discussion predicts the key shape: aggregating both directions
doubles the PPE load, so a Two-Way-Core at the One-Way clock falls to
~50% delivery while clocking up to 312.5 MHz restores line rate.
"""

import pytest

from common import report
from repro.apps import StaticNat
from repro.core import FlexSFPModule, ShellKind, ShellSpec
from repro.hls import compile_app
from repro.netem import CbrSource
from repro.packet import make_udp
from repro.sim import Port, RateMeter, Simulator, connect
from repro.nfv import Deployment

RUN_S = 0.2e-3
FRAME = 60  # worst-case minimum frames
KEY = b"bench-key"


def run_bidirectional(shell: ShellSpec, clock_hz: float | None) -> dict:
    """Offer line-rate traffic in both directions; return delivery stats."""
    sim = Simulator()
    nat = StaticNat(capacity=1024)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    build = compile_app(nat, shell, clock_hz=clock_hz, strict=False)
    module = FlexSFPModule(sim, "dut", Deployment.solo(nat), shell=shell, build=build, auth_key=KEY)

    host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
    fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 22)
    to_fiber, to_host = RateMeter("to_fiber"), RateMeter("to_host")
    fiber.attach(lambda p, pkt, size, when: to_fiber.observe(when, size))
    host.attach(lambda p, pkt, size, when: to_host.observe(when, size))
    connect(host, module.edge_port)
    connect(module.line_port, fiber)

    CbrSource(
        sim, host, rate_bps=10e9, frame_len=FRAME, stop=RUN_S,
        factory=lambda i, n: make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8"),
        name="edge-src",
    )
    CbrSource(
        sim, fiber, rate_bps=10e9, frame_len=FRAME, stop=RUN_S,
        factory=lambda i, n: make_udp(src_ip="8.8.8.8", dst_ip="198.51.100.1"),
        name="line-src",
    )
    sim.run(until=RUN_S + 0.1e-3)
    total_offered = (
        to_fiber.total_packets + to_host.total_packets
        + module.ppe.overload_drops.packets
    )
    delivered = to_fiber.total_packets + to_host.total_packets
    return {
        "shell": shell.kind.value,
        "clock_mhz": build.report.timing.clock_hz / 1e6,
        "meets_timing": build.report.meets_timing,
        "base_lut": build.report.shell.base_resources().lut4,
        "delivered": delivered,
        "dropped": module.ppe.overload_drops.packets,
        "delivery_fraction": delivered / total_offered if total_offered else 0.0,
    }


def compute_all():
    results = []
    results.append(run_bidirectional(ShellSpec(kind=ShellKind.ONE_WAY_FILTER), None))
    results.append(
        run_bidirectional(ShellSpec(kind=ShellKind.TWO_WAY_CORE), 156.25e6)
    )
    results.append(run_bidirectional(ShellSpec(kind=ShellKind.TWO_WAY_CORE), None))
    results.append(run_bidirectional(ShellSpec(kind=ShellKind.ACTIVE_CORE), None))
    return results


def test_fig1_architectures():
    results = compute_all()
    report(
        "Figure 1: shell architectures under bidirectional 10G (64B frames)",
        ("shell", "PPE clock (MHz)", "timing ok", "base LUT", "delivered", "dropped", "delivery"),
        [
            (
                r["shell"],
                f"{r['clock_mhz']:.2f}",
                r["meets_timing"],
                r["base_lut"],
                r["delivered"],
                r["dropped"],
                f"{r['delivery_fraction']:.0%}",
            )
            for r in results
        ],
    )
    one_way, two_way_slow, two_way_fast, active = results

    # One-Way-Filter at 156.25 MHz delivers everything (reverse path is
    # pass-through, forward path exactly line rate).
    assert one_way["clock_mhz"] == pytest.approx(156.25)
    assert one_way["delivery_fraction"] == pytest.approx(1.0, abs=0.01)
    assert one_way["dropped"] == 0

    # Two-Way-Core kept at the one-way clock is overloaded: it misses
    # timing and delivers roughly half the aggregate offered load.
    assert not two_way_slow["meets_timing"]
    assert two_way_slow["dropped"] > 0
    assert 0.6 < two_way_slow["delivery_fraction"] < 0.85  # ~50% of the PPE
    # direction + 100% of... both directions share the PPE, so overall
    # delivery sits well below the clocked-up configuration.

    # Clocking up to the next standard clock (312.5 MHz) restores line rate.
    assert two_way_fast["clock_mhz"] == pytest.approx(312.5)
    assert two_way_fast["delivery_fraction"] == pytest.approx(1.0, abs=0.01)
    assert two_way_fast["dropped"] == 0

    # The active shell behaves like Two-Way-Core on the datapath but needs
    # a strictly larger base shell (management interface + arbiter).
    assert active["delivery_fraction"] == pytest.approx(1.0, abs=0.01)
    assert active["base_lut"] > two_way_fast["base_lut"] > one_way["base_lut"]
