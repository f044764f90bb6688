"""Cross-module integration scenarios.

These exercise the deployment stories end to end: the §2.1 legacy-switch
retrofit, over-the-network reprogramming under live traffic, an INT path
across two modules, and a line-rate run through the full build→deploy→
traffic loop.
"""

import hashlib

import pytest

from repro.apps import AclFirewall, InbandTelemetry, StaticNat, unpack_report
from repro.core import (
    FlexSFPModule,
    MgmtMessage,
    MgmtOp,
    RECONFIG_DOWNTIME_S,
    ShellKind,
    ShellSpec,
    chunk_body,
    mgmt_frame,
)
from repro.hls import compile_app
from repro.netem import CbrSource
from repro.packet import INTShim, UDPPort, make_dns_query, make_udp
from repro.sim import Port, RateMeter, connect
from repro.switch import Host, LegacySwitch, PortPolicy, RetrofitPlan, apply_retrofit
from repro.nfv import Deployment

KEY = b"integration-key"


class TestRetrofittedAggregationSwitch:
    """§2.1: per-subscriber policies on a legacy FTTH aggregation switch."""

    def test_subscriber_policies_enforced(self, sim):
        switch = LegacySwitch(sim, "agg", num_ports=3)
        plan = RetrofitPlan()
        # Port 0: subscriber with DNS filtering (module line side faces the
        # subscriber, so subscriber->switch is line->edge).
        dns_policy = PortPolicy(
            "dnsfilter",
            {"domain_capacity": 64},
            shell_kind=ShellKind.TWO_WAY_CORE,
            configure=lambda app: app.block_domain("evil.example"),
        )
        plan.assign(0, dns_policy)
        result = apply_retrofit(sim, switch, plan, auth_key=KEY)

        subscriber = Host(sim, "sub", mac="02:00:00:00:00:01")
        subscriber.port.connect(switch.external_port(0))
        upstream = Host(sim, "up", mac="02:00:00:00:00:02")
        upstream.port.connect(switch.external_port(1))

        blocked = make_dns_query("ads.evil.example", src_ip="100.64.0.1")
        blocked.eth.src = 0x020000000001
        blocked.eth.dst = 0x020000000002
        allowed = make_dns_query("good.example", src_ip="100.64.0.1")
        allowed.eth.src = 0x020000000001
        allowed.eth.dst = 0x020000000002
        subscriber.send(blocked)
        subscriber.send(allowed)
        sim.run(until=1e-2)

        assert upstream.rx_packets == 1
        assert upstream.received[0].dns().questions[0].qname == "good.example"
        module = result.module_at(0)
        assert module.app.counter("dns_blocked").packets == 1

    def test_rate_limited_subscriber(self, sim):
        switch = LegacySwitch(sim, "agg", num_ports=2)
        plan = RetrofitPlan()
        plan.assign(
            0,
            PortPolicy(
                "ratelimiter",
                {"capacity": 16},
                shell_kind=ShellKind.TWO_WAY_CORE,
                configure=lambda app: app.add_limit(
                    "100.64.0.0", 16, rate_bps=1e6, burst_bytes=2_000
                ),
            ),
        )
        result = apply_retrofit(sim, switch, plan, auth_key=KEY)
        subscriber = Host(sim, "sub", mac="02:00:00:00:00:01")
        subscriber.port.connect(switch.external_port(0))
        upstream = Host(sim, "up", mac="02:00:00:00:00:02")
        upstream.port.connect(switch.external_port(1))

        for i in range(20):
            packet = make_udp(
                src_mac="02:00:00:00:00:01",
                dst_mac="02:00:00:00:00:02",
                src_ip="100.64.0.5",
                payload=b"x" * 400,
            )
            subscriber.send(packet)
        sim.run(until=1e-2)
        limiter = result.module_at(0).app
        assert limiter.counter("policed").packets > 0
        assert upstream.rx_packets < 20


class TestOtaReprogramUnderTraffic:
    """§4.2: swap NAT -> firewall over the wire while traffic flows."""

    def test_full_lifecycle(self, sim):
        nat = StaticNat(capacity=1024)
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(sim, "m", Deployment.solo(nat), auth_key=KEY)
        host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
        fiber = Port(sim, "fiber", 10e9)
        fiber_meter = RateMeter("fiber")
        host_rx = []
        fiber.attach(lambda p, pkt, size, when: fiber_meter.observe(when, size))
        host.attach(lambda p, pkt, size, when: host_rx.append(pkt))
        connect(host, module.edge_port)
        connect(module.line_port, fiber)

        # Continuous background traffic for the whole scenario.
        CbrSource(
            sim,
            host,
            rate_bps=1e9,
            frame_len=512,
            stop=3 * RECONFIG_DOWNTIME_S,
            factory=lambda i, n: make_udp(src_ip="10.0.0.1", payload=b"x" * 400),
        )

        # Stream the new firewall bitstream through the management plane.
        firewall_build = compile_app(AclFirewall(capacity=64), ShellSpec())
        image = firewall_build.bitstream.to_bytes()
        seq = [1000]

        def send_mgmt(opcode=None, body=None, **fields):
            seq[0] += 1
            if body is not None:
                message = MgmtMessage(opcode, seq[0], body)
            else:
                message = MgmtMessage.control(opcode, seq[0], **fields)
            host.send(mgmt_frame(message, KEY, "02:00:00:00:00:aa", module.mgmt_mac))

        def start_transfer():
            send_mgmt(
                MgmtOp.RECONFIG_BEGIN,
                slot=1,
                total_len=len(image),
                sha256=hashlib.sha256(image).hexdigest(),
            )
            for offset in range(0, len(image), 1024):
                send_mgmt(
                    MgmtOp.RECONFIG_CHUNK,
                    body=chunk_body(offset, image[offset : offset + 1024]),
                )
            send_mgmt(
                MgmtOp.RECONFIG_COMMIT,
                signature=firewall_build.bitstream.sign(KEY).hex(),
            )
            send_mgmt(MgmtOp.BOOT_SELECT, slot=1)
            send_mgmt(MgmtOp.REBOOT)

        sim.schedule(1e-3, start_transfer)
        sim.run(until=3 * RECONFIG_DOWNTIME_S + 1e-2)

        assert module.app.name == "firewall"
        assert module.reboots == 1
        assert module.downtime_drops.packets > 0  # dark during reprogram
        assert fiber_meter.total_packets > 0  # and traffic after reboot
        # Management replies flowed back inline.
        acks = [
            pkt for pkt in host_rx
            if MgmtMessage.unpack(pkt.payload, KEY).json_body().get("ok")
        ]
        assert len(acks) >= 4


class TestIntPathAcrossModules:
    """INT source on one cable end, sink on the other."""

    def test_source_transit_sink(self, sim):
        source_mod = FlexSFPModule(
            sim, "src", Deployment.solo(InbandTelemetry(role="source")), auth_key=KEY, device_id=1
        )
        sink_mod = FlexSFPModule(
            sim,
            "sink",
            Deployment.solo(InbandTelemetry(role="sink", only_direction=None)),
            shell=ShellSpec(kind=ShellKind.TWO_WAY_CORE),
            auth_key=KEY,
            device_id=2,
        )
        host_a = Host(sim, "a")
        host_b = Host(sim, "b")
        host_a.port.connect(source_mod.edge_port)
        # Fiber between the two modules: src line <-> sink line.
        connect(source_mod.line_port, sink_mod.line_port)
        host_b.port.connect(sink_mod.edge_port)

        host_a.send(make_udp(payload=b"user"))
        sim.run(until=1e-2)

        # Host B received the user packet, INT-free.
        user = [p for p in host_b.received if p.payload == b"user"]
        assert user and user[0].get(INTShim) is None
        # And the sink emitted a telemetry report with the source's hop.
        reports = [
            p
            for p in host_b.received + host_a.received
            if p.udp is not None and p.udp.dport == UDPPort.INT_COLLECTOR
        ]
        assert reports
        device_id, hops = unpack_report(reports[0].payload)
        assert device_id == 2
        assert hops[0].device_id == 1


class TestLineRateNat:
    """§5.1: 'a simple end-to-end test confirmed line-rate performance'."""

    @pytest.mark.parametrize("frame_len", [60, 512, 1514])
    def test_nat_sustains_10g(self, sim, frame_len):
        nat = StaticNat(capacity=1024)
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(sim, "m", Deployment.solo(nat), auth_key=KEY)
        host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
        fiber = Port(sim, "fiber", 10e9)
        meter = RateMeter("fiber")
        fiber.attach(lambda p, pkt, size, when: meter.observe(when, size))
        connect(host, module.edge_port)
        connect(module.line_port, fiber)

        payload = max(0, frame_len - 42)
        CbrSource(
            sim,
            host,
            rate_bps=10e9,
            frame_len=frame_len,
            stop=0.4e-3,
            factory=lambda i, n: make_udp(src_ip="10.0.0.1", payload=bytes(payload)),
        )
        sim.run(until=0.6e-3)
        assert module.ppe.overload_drops.packets == 0
        # Achieved goodput equals the line's goodput share for this size.
        expected_goodput = 10e9 * frame_len / (max(frame_len + 4, 64) + 20)
        assert meter.bits_per_second() == pytest.approx(expected_goodput, rel=0.02)


class TestServiceChaining:
    """Two FlexSFPs in series on one path: NAT then firewall.

    The modular deployment model composes functions by cabling modules —
    each port adds one function, no box in the middle.
    """

    def test_nat_then_firewall(self, sim):
        nat = StaticNat(capacity=64)
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        nat_module = FlexSFPModule(sim, "nat-sfp", Deployment.solo(nat), auth_key=KEY)

        firewall = AclFirewall(default_action="deny")
        # Only the *translated* address is permitted upstream: the chain
        # order is observable.
        from repro.apps import AclRule

        firewall.add_rule(AclRule("permit", src="198.51.100.1", priority=10))
        fw_module = FlexSFPModule(sim, "fw-sfp", Deployment.solo(firewall), auth_key=KEY)

        host = Port(sim, "host", 10e9, queue_bytes=1 << 20)
        upstream = Port(sim, "upstream", 10e9)
        delivered = []
        upstream.attach(lambda p, pkt, size, when: delivered.append(pkt))
        connect(host, nat_module.edge_port)
        connect(nat_module.line_port, fw_module.edge_port)
        connect(fw_module.line_port, upstream)

        # Mapped host: translated, then permitted.
        host.send(make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8"))
        # Unmapped host: passes NAT untranslated, then denied.
        host.send(make_udp(src_ip="10.0.0.99", dst_ip="8.8.8.8"))
        sim.run(until=1e-2)

        assert len(delivered) == 1
        assert delivered[0].ipv4.src_ip == "198.51.100.1"
        assert firewall.counter("denied").packets == 1
        assert nat.counter("translated").packets == 1

    def test_chain_total_latency_budget(self, sim):
        """Each module adds sub-microsecond latency; two stay under 3 us."""
        from repro.apps import create_app

        modules = [
            FlexSFPModule(sim, f"m{i}", Deployment.solo(create_app("passthrough")), auth_key=KEY)
            for i in range(2)
        ]
        host = Port(sim, "host", 10e9)
        sink = Port(sim, "sink", 10e9)
        arrivals = []
        sink.attach(lambda p, pkt, size, when: arrivals.append(sim.now - pkt.meta["t0"]))
        connect(host, modules[0].edge_port)
        connect(modules[0].line_port, modules[1].edge_port)
        connect(modules[1].line_port, sink)

        def send():
            packet = make_udp(payload=bytes(470))
            packet.meta["t0"] = sim.now
            host.send(packet)

        for i in range(5):
            sim.schedule(i * 1e-4, send)
        sim.run(until=1e-2)
        assert len(arrivals) == 5
        assert all(latency < 3e-6 for latency in arrivals), arrivals
