#!/usr/bin/env python3
"""Over-the-network reprogramming (§4.2): ship a new application to a live SFP.

A FlexSFP is deployed running the NAT.  An orchestrator on the host side
builds a firewall bitstream, signs it, streams it over the management
protocol (authenticated chunks into SPI flash slot 1), selects the new
boot slot, and reboots the module.  Traffic flows throughout; the module
is dark only for the fabric-reprogram window, then comes back as a
firewall.

Run:  python examples/ota_reprogramming.py
"""

import hashlib

from repro.apps import AclFirewall, AclRule, StaticNat
from repro.core import (
    FlexSFPModule,
    MgmtMessage,
    MgmtOp,
    RECONFIG_DOWNTIME_S,
    ShellSpec,
    chunk_body,
    mgmt_frame,
)
from repro.hls import compile_app
from repro.netem import CbrSource
from repro.packet import make_udp
from repro.sim import Port, Simulator, connect
from repro.nfv import Deployment

KEY = b"fleet-orchestration-key"
ORCHESTRATOR_MAC = "02:0c:00:00:00:01"


def main() -> None:
    sim = Simulator()
    nat = StaticNat(capacity=1024)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    module = FlexSFPModule(sim, "edge-sfp", Deployment.solo(nat), auth_key=KEY)

    host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
    fiber = Port(sim, "fiber", 10e9)
    fiber_count = [0]
    replies = []
    fiber.attach(lambda p, pkt, size, when: fiber_count.__setitem__(0, fiber_count[0] + 1))
    host.attach(
        lambda p, pkt, size, when: replies.append(MgmtMessage.unpack(pkt.payload, KEY))
    )
    connect(host, module.edge_port)
    connect(module.line_port, fiber)

    # Background traffic for the whole scenario.
    CbrSource(
        sim, host, rate_bps=2e9, frame_len=512, stop=3 * RECONFIG_DOWNTIME_S,
        factory=lambda i, n: make_udp(src_ip="10.0.0.1", payload=bytes(470)),
    )

    # Build + sign the replacement application.
    firewall = AclFirewall(capacity=64, default_action="deny")
    build = compile_app(firewall, ShellSpec())
    image = build.bitstream.to_bytes()
    signature = build.bitstream.sign(KEY).hex()
    print(f"built firewall bitstream: {len(image)} bytes, "
          f"{build.report.timing.clock_hz / 1e6:.2f} MHz, "
          f"fits={build.report.fits}")

    seq = [0]

    def send(opcode, body=None, **fields):
        seq[0] += 1
        message = (
            MgmtMessage(opcode, seq[0], body)
            if body is not None
            else MgmtMessage.control(opcode, seq[0], **fields)
        )
        host.send(mgmt_frame(message, KEY, ORCHESTRATOR_MAC, module.mgmt_mac))

    def deploy():
        send(MgmtOp.HELLO)
        send(
            MgmtOp.RECONFIG_BEGIN,
            slot=1,
            total_len=len(image),
            sha256=hashlib.sha256(image).hexdigest(),
        )
        for offset in range(0, len(image), 1024):
            send(MgmtOp.RECONFIG_CHUNK,
                 body=chunk_body(offset, image[offset : offset + 1024]))
        send(MgmtOp.RECONFIG_COMMIT, signature=signature)
        send(MgmtOp.BOOT_SELECT, slot=1)
        send(MgmtOp.REBOOT)

    sim.schedule(1e-3, deploy)
    sim.run(until=3 * RECONFIG_DOWNTIME_S + 5e-3)

    acks = sum(1 for r in replies if r.json_body().get("ok"))
    naks = sum(1 for r in replies if not r.json_body().get("ok"))
    print(f"management replies: {acks} ACK / {naks} NAK")
    print(f"module now runs:    {module.app.name!r} "
          f"(reboots: {module.reboots})")
    print(f"downtime drops:     {module.downtime_drops.packets} packets "
          f"during the ~{RECONFIG_DOWNTIME_S * 1e3:.0f} ms reprogram window")
    print(f"flash directory:    "
          f"{[(s.index, s.app_name or '-') for s in module.flash.directory()]}")
    print(f"forwarded to fiber: {fiber_count[0]} packets "
          f"(NAT before reboot; firewall default-deny after)")


if __name__ == "__main__":
    main()
