#!/usr/bin/env python3
"""Quickstart: build a FlexSFP running the paper's NAT, push traffic through it.

This is the §5.1 case study in ~60 lines: synthesize the static NAT into
the One-Way-Filter shell on the MPF200T (the build flow picks the paper's
64-bit @ 156.25 MHz operating point), cable the module between a host and
the fiber, stream traffic, and print the resource report plus achieved
throughput.

Run:  python examples/quickstart.py
"""

from repro.apps import StaticNat
from repro.core import FlexSFPModule
from repro.netem import CbrSource
from repro.packet import make_udp
from repro.sim import Port, RateMeter, Simulator, connect
from repro.nfv import Deployment

RUN_S = 0.5e-3  # half a millisecond of simulated 10G traffic


def main() -> None:
    sim = Simulator()

    # 1. The application: one-to-one source NAT with a 32k-flow table.
    nat = StaticNat()
    nat.add_mapping("10.0.0.1", "198.51.100.1")

    # 2. The module: building it runs the HLS-like flow (resources, timing,
    #    bitstream) and stores the golden image in the SPI flash.
    module = FlexSFPModule(sim, "sfp0", Deployment.solo(nat))
    report = module.build.report
    print(f"Synthesized {report.app_name!r} for {report.device.name} "
          f"({report.timing.datapath_bits} b @ {report.timing.clock_hz / 1e6:.2f} MHz)")
    print(f"{'component':<12}{'4LUT':>8}{'FF':>8}{'uSRAM':>7}{'LSRAM':>7}")
    for name, lut4, ff, usram, lsram in report.table1_rows():
        print(f"{name:<12}{lut4:>8}{ff:>8}{usram:>7}{lsram:>7}")

    # 3. Cabling: host NIC <-> module edge; module optical <-> fiber.
    host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
    fiber = Port(sim, "fiber", 10e9)
    meter = RateMeter("fiber")
    first_seen = []
    fiber.attach(
        lambda port, pkt, size, when: (
            meter.observe(when, size),
            first_seen.append(pkt) if not first_seen else None,
        )
    )
    connect(host, module.edge_port)
    connect(module.line_port, fiber)

    # 4. Traffic: 10 Gbps of 512-byte frames from the mapped host.
    CbrSource(
        sim, host, rate_bps=10e9, frame_len=512, stop=RUN_S,
        factory=lambda i, n: make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8",
                                      payload=bytes(470)),
    )
    sim.run(until=RUN_S + 0.1e-3)

    # 5. Results.
    print(f"\nFirst translated packet: src {first_seen[0].ipv4.src_ip} "
          f"(was 10.0.0.1), dst {first_seen[0].ipv4.dst_ip}")
    print(f"Achieved goodput: {meter.bits_per_second() / 1e9:.2f} Gbps "
          f"({meter.total_packets} packets, 0 PPE drops: "
          f"{module.ppe.overload_drops.packets == 0})")
    verdicts = {v.value: n for v, n in module.ppe.verdict_counts.items()}
    print(f"PPE verdicts: {verdicts}")


if __name__ == "__main__":
    main()
