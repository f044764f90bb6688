"""Control-plane microservices: the in-cable endpoint (§4.1, §6)."""

import pytest

from repro.apps import CpuPunt
from repro.core import (
    ArpResponder,
    Direction,
    FlexSFPModule,
    IcmpEchoResponder,
    ServiceRegistry,
    ShellKind,
    ShellSpec,
    Verdict,
)
from repro.errors import ControlPlaneError
from repro.packet import ARP, ICMP, Ethernet, EtherType, Packet, make_icmp_echo, make_udp
from repro.switch import Host
from tests.conftest import make_ctx
from repro.nfv import Deployment

MODULE_MAC = "02:f5:f9:00:00:42"
MODULE_IP = "192.0.2.42"


def arp_request(target_ip: str) -> Packet:
    return Packet(
        [
            Ethernet("ff:ff:ff:ff:ff:ff", "02:00:00:00:00:01", EtherType.ARP),
            ARP(
                ARP.REQUEST,
                sender_mac="02:00:00:00:00:01",
                sender_ip="192.0.2.1",
                target_ip=target_ip,
            ),
        ]
    )


class TestArpResponder:
    def test_answers_owned_address(self):
        responder = ArpResponder(MODULE_MAC, [MODULE_IP])
        reply = responder.handle(arp_request(MODULE_IP), Direction.EDGE_TO_LINE)
        assert reply is not None
        arp = reply.get(ARP)
        assert arp.opcode == ARP.REPLY
        assert arp.sender_mac == 0x02F5F9000042
        assert arp.target_ip == 0xC0000201  # back to the asker

    def test_ignores_foreign_address(self):
        responder = ArpResponder(MODULE_MAC, [MODULE_IP])
        assert responder.handle(arp_request("192.0.2.99"), Direction.EDGE_TO_LINE) is None

    def test_ignores_replies(self):
        responder = ArpResponder(MODULE_MAC, [MODULE_IP])
        packet = arp_request(MODULE_IP)
        packet.get(ARP).opcode = ARP.REPLY
        assert responder.handle(packet, Direction.EDGE_TO_LINE) is None


class TestIcmpEchoResponder:
    def test_answers_ping(self):
        responder = IcmpEchoResponder(MODULE_MAC, MODULE_IP)
        ping = make_icmp_echo(dst_ip=MODULE_IP, identifier=9, sequence=3,
                              payload=b"abcdef")
        reply = responder.handle(ping, Direction.EDGE_TO_LINE)
        assert reply is not None
        icmp = reply.get(ICMP)
        assert icmp.icmp_type == ICMP.ECHO_REPLY
        assert icmp.identifier == 9 and icmp.sequence == 3
        assert reply.payload == b"abcdef"
        assert reply.ipv4.src_ip == MODULE_IP

    def test_ignores_other_destinations(self):
        responder = IcmpEchoResponder(MODULE_MAC, MODULE_IP)
        assert responder.handle(make_icmp_echo(dst_ip="8.8.8.8"), Direction.EDGE_TO_LINE) is None

    def test_ignores_echo_reply(self):
        responder = IcmpEchoResponder(MODULE_MAC, MODULE_IP)
        ping = make_icmp_echo(dst_ip=MODULE_IP)
        ping.get(ICMP).icmp_type = ICMP.ECHO_REPLY
        assert responder.handle(ping, Direction.EDGE_TO_LINE) is None


class TestRegistry:
    def test_first_responder_wins(self):
        registry = ServiceRegistry()
        registry.register(ArpResponder(MODULE_MAC, [MODULE_IP]))
        registry.register(IcmpEchoResponder(MODULE_MAC, MODULE_IP))
        reply = registry.dispatch(arp_request(MODULE_IP), Direction.EDGE_TO_LINE)
        assert reply is not None and reply.get(ARP) is not None
        assert registry.metric_values() == {
            "arp-responder.handled": 1,
            "arp-responder.ignored": 0,
            "icmp-echo.handled": 0,
            "icmp-echo.ignored": 0,
        }

    def test_no_service_matches(self):
        registry = ServiceRegistry()
        registry.register(ArpResponder(MODULE_MAC, [MODULE_IP]))
        assert registry.dispatch(make_udp(), Direction.EDGE_TO_LINE) is None
        assert registry.metric_values() == {
            "arp-responder.handled": 0,
            "arp-responder.ignored": 1,
        }

    def test_duplicate_rejected(self):
        registry = ServiceRegistry()
        registry.register(ArpResponder(MODULE_MAC, [MODULE_IP]))
        with pytest.raises(ControlPlaneError):
            registry.register(ArpResponder(MODULE_MAC, []))


class TestCpuPuntApp:
    def test_punts_arp(self):
        app = CpuPunt(owned_ips=[MODULE_IP])
        assert app.process(arp_request(MODULE_IP), make_ctx()) is Verdict.TO_CPU

    def test_punts_owned_icmp_only(self):
        app = CpuPunt(owned_ips=[MODULE_IP])
        assert app.process(make_icmp_echo(dst_ip=MODULE_IP), make_ctx()) is Verdict.TO_CPU
        assert app.process(make_icmp_echo(dst_ip="8.8.8.8"), make_ctx()) is Verdict.PASS

    def test_forwards_data(self):
        app = CpuPunt(owned_ips=[MODULE_IP])
        assert app.process(make_udp(), make_ctx()) is Verdict.PASS

    def test_config_roundtrip(self):
        app = CpuPunt(owned_ips=["1.2.3.4"], punt_arp=False)
        clone = CpuPunt(**app.config())
        assert clone.owned_ips == ["1.2.3.4"] and not clone.punt_arp


class TestMicroserviceNodeEndToEnd:
    """The full §6 vision: ping an SFP that answers from inside the cable."""

    def test_arp_and_ping_the_cable(self, sim):
        app = CpuPunt(owned_ips=[MODULE_IP])
        module = FlexSFPModule(
            sim,
            "node",
            Deployment.solo(app),
            shell=ShellSpec(kind=ShellKind.ACTIVE_CORE),
            mgmt_mac=MODULE_MAC,
        )
        module.services.register(ArpResponder(MODULE_MAC, [MODULE_IP]))
        module.services.register(IcmpEchoResponder(MODULE_MAC, MODULE_IP))

        host = Host(sim, "host", mac="02:00:00:00:00:01")
        host.port.connect(module.edge_port)
        far = Host(sim, "far")
        far.port.connect(module.line_port)

        host.send(arp_request(MODULE_IP))
        ping = make_icmp_echo(src_ip="192.0.2.1", dst_ip=MODULE_IP, payload=b"hi!")
        ping.eth.src = 0x020000000001
        host.send(ping)
        host.send(make_udp())  # data traffic still forwards
        sim.run(until=1e-2)

        arp_replies = [p for p in host.received if p.get(ARP) is not None]
        echo_replies = [
            p for p in host.received
            if p.get(ICMP) is not None and p.get(ICMP).icmp_type == ICMP.ECHO_REPLY
        ]
        assert len(arp_replies) == 1
        assert arp_replies[0].get(ARP).sender_mac == 0x02F5F9000042
        assert len(echo_replies) == 1 and echo_replies[0].payload == b"hi!"
        assert far.rx_packets == 1  # only the UDP data crossed the cable
        values = module.services.metric_values()
        assert values["arp-responder.handled"] == values["icmp-echo.handled"] == 1
