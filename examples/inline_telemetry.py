#!/usr/bin/env python3
"""In-band telemetry across a cable: INT source on one end, sink on the other.

Two FlexSFPs terminate the same fiber (§3, Monitoring & Observability):
the near end stamps packets with an INT shim carrying per-hop metadata,
the far end strips the shim, restores the original frame, and exports the
collected hop records to a collector — observability for a link whose
switches cannot be instrumented.  The run is also captured to a pcap.

Run:  python examples/inline_telemetry.py
"""

import tempfile
from pathlib import Path

from repro.apps import InbandTelemetry, unpack_report
from repro.core import FlexSFPModule, ShellKind, ShellSpec
from repro.netem import PoissonSource
from repro.packet import Packet, UDPPort, make_udp
from repro.sim import PcapWriter, Simulator, connect
from repro.switch import Host
from repro.nfv import Deployment


def main() -> None:
    sim = Simulator()

    source_mod = FlexSFPModule(
        sim, "near-end", Deployment.solo(InbandTelemetry(role="source")), device_id=101
    )
    sink_mod = FlexSFPModule(
        sim,
        "far-end",
        Deployment.solo(InbandTelemetry(role="sink", only_direction=None)),
        shell=ShellSpec(kind=ShellKind.TWO_WAY_CORE),
        device_id=202,
    )

    host_a = Host(sim, "hostA")
    host_b = Host(sim, "hostB")
    host_a.port.connect(source_mod.edge_port)
    connect(source_mod.line_port, sink_mod.line_port, propagation_s=500e-9)  # 100 m
    host_b.port.connect(sink_mod.edge_port)

    PoissonSource(
        sim,
        host_a.port,
        rate_bps=1e9,
        frame_len=512,
        stop=1e-3,
        seed=7,
        factory=lambda i, n: make_udp(
            src_ip="10.0.0.1", dst_ip="10.0.0.2", sport=4000 + i % 8,
            payload=bytes(470),
        ),
    )
    sim.run(until=2e-3)

    user_packets = [p for p in host_b.received
                    if p.udp is not None and p.udp.dport == 20000]
    reports = [p for p in host_b.received
               if p.udp is not None and p.udp.dport == UDPPort.INT_COLLECTOR]
    print(f"user packets delivered: {len(user_packets)} "
          f"(INT shim stripped: {all(len(p.headers) == 3 for p in user_packets)})")
    print(f"telemetry reports: {len(reports)}")
    if reports:
        device_id, hops = unpack_report(reports[0].payload)
        print(f"  first report from sink device {device_id}: "
              f"{len(hops)} hop(s), source device {hops[0].device_id}, "
              f"ingress ts {hops[0].ingress_ts_ns} ns")

    pcap_path = Path(tempfile.gettempdir()) / "flexsfp_int.pcap"
    with PcapWriter(pcap_path) as writer:
        for i, packet in enumerate(host_b.received):
            writer.write(i * 1e-6, packet.to_bytes())
    print(f"wrote {len(host_b.received)} frames to {pcap_path}")

    print(f"\nsource module: {source_mod.app.metric_values()}")
    print(f"sink module:   {sink_mod.app.metric_values()}")


if __name__ == "__main__":
    main()
