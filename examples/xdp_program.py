#!/usr/bin/env python3
"""Write a custom packet function with the XDP-like programming model (§4.2).

"In the FlexSFP workflow, the developer writes the packet function (e.g.,
an XDP program).  An HLS toolchain converts it to HDL ... and emits the
SFP bitstream."  This example writes a DDoS-style SYN-flood guard as an
XDP program, builds it through the same flow as the bundled applications,
deploys it into a module, and runs traffic against it.

Run:  python examples/xdp_program.py
"""

from repro.core import FlexSFPModule, ShellSpec
from repro.hls import XdpContext, XdpMap, XdpProgram, XdpVerdict, compile_app
from repro.packet import Ethernet, IPv4, TCP, TCPFlags, make_tcp
from repro.sim import Port, Simulator, connect
from repro.nfv import Deployment

SYN_LIMIT = 5  # max un-ACKed SYNs we tolerate per source

syn_counts = XdpMap("syn_counts", kind="hash", key_bits=32, value_bits=32,
                    max_entries=4096)


def syn_guard(ctx: XdpContext) -> XdpVerdict:
    """Drop sources that send too many SYNs without completing handshakes."""
    tcp = ctx.tcp
    ip = ctx.ipv4
    if tcp is None or ip is None:
        return XdpVerdict.XDP_PASS
    if tcp.flags & TCPFlags.SYN and not tcp.flags & TCPFlags.ACK:
        count = (syn_counts.lookup(ip.src) or 0) + 1
        syn_counts.update(ip.src, count)
        if count > SYN_LIMIT:
            return XdpVerdict.XDP_DROP
    elif tcp.flags & TCPFlags.ACK:
        # Handshake progressed: forgive the source.
        if syn_counts.lookup(ip.src):
            syn_counts.update(ip.src, 0)
    return XdpVerdict.XDP_PASS


def main() -> None:
    program = XdpProgram(
        name="syn-guard",
        func=syn_guard,
        maps=[syn_counts],
        parses=(Ethernet, IPv4, TCP),
    )

    # Build it: same flow as any bundled app.
    build = compile_app(program, ShellSpec())
    print(f"compiled {program.name!r}: "
          f"{build.report.timing.datapath_bits} b @ "
          f"{build.report.timing.clock_hz / 1e6:.2f} MHz, "
          f"app resources {build.report.app_resources.as_dict()}")
    print(f"device utilization: "
          f"{ {k: f'{v:.0%}' for k, v in build.report.utilization.items()} }")

    # Deploy and attack.
    sim = Simulator()
    module = FlexSFPModule(sim, "guard", Deployment.solo(program), build=build)
    host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
    fiber = Port(sim, "fiber", 10e9)
    delivered = []
    fiber.attach(lambda p, pkt, size, when: delivered.append(pkt))
    connect(host, module.edge_port)
    connect(module.line_port, fiber)

    def attack():
        # A well-behaved flow: SYN then ACKs.
        host.send(make_tcp(src_ip="10.0.0.1", flags=TCPFlags.SYN))
        for _ in range(3):
            host.send(make_tcp(src_ip="10.0.0.1", flags=TCPFlags.ACK))
        # A flooder: 50 raw SYNs.
        for i in range(50):
            host.send(make_tcp(src_ip="10.66.6.6", sport=1024 + i,
                               flags=TCPFlags.SYN))

    sim.schedule(0.0, attack)
    sim.run(until=1e-3)

    flooder = sum(1 for p in delivered if p.ipv4.src_ip == "10.66.6.6")
    legit = sum(1 for p in delivered if p.ipv4.src_ip == "10.0.0.1")
    print(f"\nlegit packets delivered:   {legit} / 4")
    print(f"flooder packets delivered: {flooder} / 50 "
          f"(first {SYN_LIMIT} SYNs pass, the rest die in the cable)")
    verdicts = {v.value: n for v, n in module.ppe.verdict_counts.items()}
    print(f"verdicts: {verdicts}")
    print(f"lint warnings: {program.lint() or 'none'}")


if __name__ == "__main__":
    main()
