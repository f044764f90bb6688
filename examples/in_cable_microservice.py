#!/usr/bin/env python3
"""The SFP as a self-contained microservice node (§4.1 / §6 vision).

With the Active-Control-Plane shell, the module's embedded CPU is "an
active participant in the data path" — it can terminate and originate
traffic.  Here the FlexSFP owns an IP address of its own: the PPE punts
ARP and ICMP-to-self to the control plane, whose services answer them.
You can literally ping the cable.

Run:  python examples/in_cable_microservice.py
"""

from repro.apps import CpuPunt
from repro.core import (
    ArpResponder,
    FlexSFPModule,
    IcmpEchoResponder,
    ShellKind,
    ShellSpec,
)
from repro.packet import ARP, Ethernet, EtherType, ICMP, Packet, make_icmp_echo, make_udp
from repro.sim import Simulator
from repro.switch import Host
from repro.nfv import Deployment

MODULE_MAC = "02:f5:f9:00:00:01"
MODULE_IP = "192.0.2.254"  # the cable's own address
HOST_MAC = "02:00:00:00:00:01"
HOST_IP = "192.0.2.1"


def main() -> None:
    sim = Simulator()

    # Datapath: forward everything, punt ARP + ICMP-to-self to the CPU.
    app = CpuPunt(owned_ips=[MODULE_IP])
    module = FlexSFPModule(
        sim,
        "cable0",
        Deployment.solo(app),
        shell=ShellSpec(kind=ShellKind.ACTIVE_CORE),
        mgmt_mac=MODULE_MAC,
    )
    # Control-plane microservices: the module answers for itself.
    module.services.register(ArpResponder(MODULE_MAC, [MODULE_IP]))
    module.services.register(IcmpEchoResponder(MODULE_MAC, MODULE_IP))
    print(f"module {module.name} owns {MODULE_IP} "
          f"(services: {module.services.names()})")

    host = Host(sim, "host", mac=HOST_MAC, ip=HOST_IP)
    host.port.connect(module.edge_port)
    remote = Host(sim, "remote", mac="02:00:00:00:00:02")
    remote.port.connect(module.line_port)

    # 1. ARP: who-has the cable's address?
    host.send(Packet([
        Ethernet("ff:ff:ff:ff:ff:ff", HOST_MAC, EtherType.ARP),
        ARP(ARP.REQUEST, sender_mac=HOST_MAC, sender_ip=HOST_IP,
            target_ip=MODULE_IP),
    ]))
    # 2. Ping the cable, three times.
    for seq in range(1, 4):
        ping = make_icmp_echo(src_ip=HOST_IP, dst_ip=MODULE_IP,
                              identifier=7, sequence=seq,
                              payload=f"ping {seq}".encode())
        ping.eth.src = 0x020000000001
        sim.schedule(seq * 1e-4, host.send, ping)
    # 3. Normal traffic still crosses the cable untouched.
    sim.schedule(5e-4, host.send,
                 make_udp(src_ip=HOST_IP, dst_ip="203.0.113.9", payload=b"data"))
    sim.run(until=2e-3)

    arp_replies = [p for p in host.received if p.get(ARP) is not None]
    pongs = [p for p in host.received
             if p.get(ICMP) is not None and p.get(ICMP).icmp_type == ICMP.ECHO_REPLY]
    print(f"\nARP reply: {MODULE_IP} is-at "
          f"{arp_replies[0].get(ARP).sender_mac:#014x}" if arp_replies else "no ARP reply")
    for pong in pongs:
        icmp = pong.get(ICMP)
        print(f"64 bytes from {pong.ipv4.src_ip}: icmp_seq={icmp.sequence} "
              f"payload={pong.payload!r}")
    print(f"\nforwarded through the cable: {remote.rx_packets} packet(s)")
    print(f"punted to the embedded CPU:   {len(module.punted_to_cpu)} packet(s)")
    print(f"service stats: {module.services.metric_values()}")


if __name__ == "__main__":
    main()
