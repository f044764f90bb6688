#!/usr/bin/env python3
"""The §2.1 deployment story: retrofit a legacy aggregation switch.

A telecom operator has a fixed-function L2 aggregation switch connecting
FTTH subscribers to a metro uplink.  The switch has no programmability —
so we give each subscriber port a FlexSFP instead of its plain SFP:

* port 0 (subscriber A): DNS/DoH filtering (parental controls).
* port 1 (subscriber B): per-subscriber rate limiting.
* port 2 (uplink): NetFlow-like flow telemetry export.

No switch software changes, no chassis replacement: the modules are
drop-in, and the upgrade's power bill is ~1.5 W per port.

Run:  python examples/legacy_switch_retrofit.py
"""

from repro.core import ShellKind
from repro.netem import FlowSetGenerator, flow_packets
from repro.packet import UDPPort, make_dns_query, make_udp
from repro.sim import Simulator
from repro.switch import Host, LegacySwitch, PortPolicy, RetrofitPlan, apply_retrofit

SUB_A_MAC, SUB_B_MAC, UPLINK_MAC = (
    "02:00:00:00:00:0a",
    "02:00:00:00:00:0b",
    "02:00:00:00:00:ff",
)


def main() -> None:
    sim = Simulator()
    switch = LegacySwitch(sim, "agg1", num_ports=3, rate_bps=10e9)

    plan = RetrofitPlan()
    plan.assign(
        0,
        PortPolicy(
            "dnsfilter",
            shell_kind=ShellKind.TWO_WAY_CORE,
            configure=lambda app: (
                app.block_domain("ads.example"),
                app.add_doh_resolver("1.1.1.1"),
            ),
        ),
    )
    plan.assign(
        1,
        PortPolicy(
            "ratelimiter",
            shell_kind=ShellKind.TWO_WAY_CORE,
            configure=lambda app: app.add_limit(
                "100.64.0.0", 10, rate_bps=50e6, burst_bytes=64_000
            ),
        ),
    )
    plan.assign(2, PortPolicy("telemetry", {"export_interval_ns": 50_000}))
    result = apply_retrofit(sim, switch, plan)
    print(f"Retrofitted ports {sorted(result.modules)}; "
          f"added power ~{result.total_added_power_w():.1f} W")

    # Hosts behind the (now programmable) ports.
    sub_a = Host(sim, "subA", mac=SUB_A_MAC)
    sub_b = Host(sim, "subB", mac=SUB_B_MAC)
    uplink = Host(sim, "uplink", mac=UPLINK_MAC)
    sub_a.port.connect(switch.external_port(0))
    sub_b.port.connect(switch.external_port(1))
    uplink.port.connect(switch.external_port(2))

    # Subscriber A: a blocked and an allowed DNS query, plus a DoH attempt.
    for qname in ("tracker.ads.example", "news.example"):
        query = make_dns_query(qname, src_ip="100.64.0.10")
        query.eth.src, query.eth.dst = 0x02000000000A, 0x0200000000FF
        sub_a.send(query)
    doh = make_udp(src_mac=SUB_A_MAC, dst_mac=UPLINK_MAC,
                   src_ip="100.64.0.10", dst_ip="1.1.1.1", dport=443)
    sub_a.send(doh)

    # Subscriber B: a heavy-tailed burst that exceeds the 50 Mbps policy.
    generator = FlowSetGenerator(num_subscribers=1, seed=9,
                                 subscriber_base="100.64.0.20")
    for flow in generator.generate(6, duration_s=0.0):
        for packet in flow_packets(flow, mtu_payload=1200)[:40]:
            packet.eth.src, packet.eth.dst = 0x02000000000B, 0x0200000000FF
            sub_b.send(packet)

    # A late keep-alive from subscriber A gives the uplink telemetry module
    # a packet *after* its export interval, triggering a flow export.
    def keepalive():
        packet = make_udp(src_mac=SUB_A_MAC, dst_mac=UPLINK_MAC,
                          src_ip="100.64.0.10", dst_ip="203.0.113.50")
        sub_a.send(packet)

    for at in (1e-3, 2e-3, 3e-3):
        sim.schedule(at, keepalive)
    sim.run(until=5e-3)

    dns_mod, rate_mod, tel_mod = (result.module_at(i) for i in range(3))
    print("\n--- per-port enforcement ---")
    print(f"port 0 DNS blocked:  {dns_mod.app.counter('dns_blocked').packets} "
          f"(DoH blocked: {dns_mod.app.counter('doh_blocked').packets})")
    policed = rate_mod.app.counter("policed")
    print(f"port 1 policed:      {policed.packets} packets "
          f"({policed.bytes} bytes dropped at the optical edge)")
    reports = [p for p in uplink.received
               if p.udp is not None and p.udp.dport == UDPPort.NETFLOW]
    print(f"port 2 flow reports: {tel_mod.app.exports_sent} exported "
          f"({len(reports)} reached the uplink collector)")
    print(f"\nuplink received {uplink.rx_packets} packets total")
    print(f"switch stats: {switch.metric_values()}")


if __name__ == "__main__":
    main()
