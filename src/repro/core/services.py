"""Control-plane services: the SFP as a self-contained microservice node.

§4.1's third architecture "promotes the control plane from a passive
management entity to an active participant in the data path ... if
lightweight application logic could be embedded directly into the control
plane, the SFP could act as a self-contained microservice node."

A :class:`ControlPlaneService` receives packets the PPE punted with
``Verdict.TO_CPU`` and may originate replies.  Services run on the
embedded CPU, so each handled packet costs control-plane latency — they
are for low-rate protocol chores (ARP, ICMP, small caches), not for the
data path.  The bundled services:

* :class:`ArpResponder` — answers ARP requests for addresses the module
  owns (lets a FlexSFP terminate an IP endpoint with zero host support).
* :class:`IcmpEchoResponder` — answers pings to the module's address
  (liveness for the in-cable node itself).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .._util import ip_to_int, mac_to_int
from ..errors import ControlPlaneError
from ..packet import ARP, EtherType, Ethernet, ICMP, IPv4, Packet
from ..sim.stats import Counter
from .ppe import Direction


class ControlPlaneService(ABC):
    """One punt-path service running on the embedded CPU."""

    name: str = "service"

    def __init__(self) -> None:
        self.handled = Counter(f"{self.name}.handled")
        self.ignored = Counter(f"{self.name}.ignored")

    @abstractmethod
    def handle(self, packet: Packet, direction: Direction) -> Packet | None:
        """Process a punted packet; optionally return a reply to transmit.

        The reply (if any) is sent back out the interface the packet
        arrived on.  Return None to ignore the packet.
        """


class ServiceRegistry:
    """The service chain a module's control plane runs on punted packets."""

    def __init__(self) -> None:
        self._services: list[ControlPlaneService] = []

    def register(self, service: ControlPlaneService) -> None:
        if any(s.name == service.name for s in self._services):
            raise ControlPlaneError(f"duplicate service {service.name!r}")
        self._services.append(service)

    def names(self) -> list[str]:
        return [s.name for s in self._services]

    def __len__(self) -> int:
        return len(self._services)

    def dispatch(self, packet: Packet, direction: Direction) -> Packet | None:
        """First service that produces a reply wins."""
        for service in self._services:
            reply = service.handle(packet, direction)
            if reply is not None:
                service.handled.count(packet.wire_len)
                return reply
            service.ignored.count(packet.wire_len)
        return None

    def metric_values(self) -> dict[str, int]:
        """Flat :class:`~repro.obs.registry.MetricSource` view, per service."""
        values: dict[str, int] = {}
        for s in self._services:
            values[f"{s.name}.handled"] = s.handled.packets
            values[f"{s.name}.ignored"] = s.ignored.packets
        return values


class ArpResponder(ControlPlaneService):
    """Answers ARP who-has requests for owned IPv4 addresses."""

    name = "arp-responder"

    def __init__(self, mac: str | int, owned_ips: list[str | int]) -> None:
        super().__init__()
        self.mac = mac_to_int(mac)
        self.owned = {ip_to_int(ip) for ip in owned_ips}

    def handle(self, packet: Packet, direction: Direction) -> Packet | None:
        arp = packet.get(ARP)
        if arp is None or arp.opcode != ARP.REQUEST or arp.target_ip not in self.owned:
            return None
        reply_arp = ARP(
            opcode=ARP.REPLY,
            sender_mac=self.mac,
            sender_ip=arp.target_ip,
            target_mac=arp.sender_mac,
            target_ip=arp.sender_ip,
        )
        return Packet(
            [Ethernet(dst=arp.sender_mac, src=self.mac, ethertype=EtherType.ARP), reply_arp]
        )


class IcmpEchoResponder(ControlPlaneService):
    """Answers ICMP echo requests addressed to the module."""

    name = "icmp-echo"

    def __init__(self, mac: str | int, ip: str | int) -> None:
        super().__init__()
        self.mac = mac_to_int(mac)
        self.ip = ip_to_int(ip)

    def handle(self, packet: Packet, direction: Direction) -> Packet | None:
        ip = packet.ipv4
        icmp = packet.get(ICMP)
        eth = packet.eth
        if (
            ip is None
            or icmp is None
            or eth is None
            or ip.dst != self.ip
            or icmp.icmp_type != ICMP.ECHO_REQUEST
        ):
            return None
        reply = Packet(
            [
                Ethernet(dst=eth.src, src=self.mac, ethertype=EtherType.IPV4),
                IPv4(src=self.ip, dst=ip.src, proto=1, ttl=64),
                ICMP(
                    ICMP.ECHO_REPLY,
                    identifier=icmp.identifier,
                    sequence=icmp.sequence,
                ),
            ],
            packet.payload,
        )
        return reply
