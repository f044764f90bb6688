"""§6 research question — latency overhead vs early enforcement.

"Which practical impact of introducing processing within the SFP, and
when is the trade-off between added latency and early enforcement
justified?"

Two deployments of the same per-subscriber firewall policy:

* **in-cable**: the FlexSFP filters at the optical edge.  Legit packets
  pay the module's processing latency; attack packets die before touching
  the uplink.
* **upstream**: a plain SFP plus a filtering appliance one switch hop and
  2 km of fiber away.  Legit packets pay the detour; attack traffic
  burns uplink bandwidth before dying.

The bench measures (a) one-way latency added for legit traffic and
(b) wasted uplink bytes per attack packet, locating the trade-off the
paper poses: the module adds sub-microsecond latency but saves the entire
uplink round for every dropped packet.
"""


from common import report
from repro.apps import AclFirewall, AclRule
from repro.core import FlexSFPModule
from repro.packet import make_udp
from repro.sim import Port, Simulator, connect
from repro.switch import LegacySwitch
from repro.nfv import Deployment

KEY = b"bench-key"
UPSTREAM_FIBER_S = 10e-6  # 2 km of fiber at 5 ns/m
ATTACK_PACKETS = 200
LEGIT_PACKETS = 50


def policy() -> AclFirewall:
    firewall = AclFirewall(default_action="permit")
    firewall.add_rule(AclRule("deny", src="203.0.113.66", priority=10))
    return firewall


def run_in_cable() -> dict:
    sim = Simulator()
    module = FlexSFPModule(sim, "edge", Deployment.solo(policy()), auth_key=KEY)
    host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
    uplink = Port(sim, "uplink", 10e9)
    latencies, uplink_bytes = [], [0]

    def on_uplink(port, pkt, size, when):
        uplink_bytes[0] += size
        if pkt.meta.get("legit"):
            latencies.append(sim.now - pkt.meta["sent_at"])

    uplink.attach(on_uplink)
    connect(host, module.edge_port)
    connect(module.line_port, uplink)
    _offer_traffic(sim, host.send)
    sim.run(until=10e-3)
    return _summarize("FlexSFP (in-cable)", latencies, uplink_bytes[0])


def run_upstream() -> dict:
    sim = Simulator()
    # Plain SFP at the edge: host -> switch -> 2km fiber -> appliance.
    switch = LegacySwitch(sim, "agg", num_ports=2)
    host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
    connect(host, switch.external_port(0))
    appliance = FlexSFPModule(sim, "appliance", Deployment.solo(policy()), auth_key=KEY)
    # The appliance's edge faces the long-haul link from the switch.
    appliance_in = switch.external_port(1)
    appliance_in.connect(appliance.edge_port, propagation_s=UPSTREAM_FIBER_S)

    latencies = []

    def on_clean_side(port, pkt, size, when):
        if pkt.meta.get("legit"):
            latencies.append(sim.now - pkt.meta["sent_at"])

    clean = Port(sim, "clean", 10e9)
    clean.attach(on_clean_side)
    connect(appliance.line_port, clean)

    _offer_traffic(sim, host.send)
    sim.run(until=10e-3)
    # Uplink bytes = everything that crossed the 2 km link to the
    # appliance, attack traffic included.
    wasted = appliance.edge_port.rx.bytes
    return _summarize("upstream appliance", latencies, wasted)


def _offer_traffic(sim, send) -> None:
    def emit(index: int) -> None:
        legit = index % (ATTACK_PACKETS // LEGIT_PACKETS + 1) == 0
        src = "100.64.0.10" if legit else "203.0.113.66"
        pkt = make_udp(
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip=src,
            payload=bytes(470),
        )
        pkt.meta["legit"] = legit
        pkt.meta["sent_at"] = sim.now
        send(pkt)

    total = ATTACK_PACKETS + LEGIT_PACKETS
    for i in range(total):
        sim.schedule(i * 1e-6, emit, i)


def _summarize(label: str, latencies, uplink_bytes) -> dict:
    avg_latency = sum(latencies) / len(latencies) if latencies else 0.0
    return {
        "deployment": label,
        "legit_delivered": len(latencies),
        "avg_latency_us": avg_latency * 1e6,
        "uplink_bytes": uplink_bytes,
    }


def compute():
    return [run_in_cable(), run_upstream()]


def test_latency_vs_early_enforcement(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    report(
        "§6: in-cable enforcement vs upstream appliance (same ACL policy)",
        ("deployment", "legit delivered", "avg latency us", "uplink bytes consumed"),
        [
            (
                r["deployment"],
                r["legit_delivered"],
                f"{r['avg_latency_us']:.2f}",
                f"{r['uplink_bytes']:,}",
            )
            for r in rows
        ],
    )
    in_cable, upstream = rows
    # Both deliver all legitimate traffic.
    assert in_cable["legit_delivered"] == upstream["legit_delivered"] > 0
    # The in-cable path is *faster* for legit traffic here (no extra hop),
    # and in any case adds well under 2 us of processing.
    assert in_cable["avg_latency_us"] < 2.0
    assert in_cable["avg_latency_us"] < upstream["avg_latency_us"]
    # Early enforcement: the upstream deployment burns several times more
    # uplink bytes carrying attack traffic to its death.
    assert upstream["uplink_bytes"] > 4 * in_cable["uplink_bytes"]
