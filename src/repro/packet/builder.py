"""Convenience constructors for common packet shapes.

These helpers exist so that tests, examples, and traffic generators can
build realistic frames in one line instead of assembling header stacks by
hand.  All of them return fully-formed :class:`~repro.packet.packet.Packet`
objects; lengths and checksums are materialized lazily by ``to_bytes``.
"""

from __future__ import annotations

from .base import EtherType, IPProto, UDPPort
from .dns import DNSMessage, DNSQuestion, QType
from .ethernet import Ethernet, VLAN
from .ip import IPv4, IPv6
from .packet import Packet
from .transport import ICMP, TCP, TCPFlags, UDP
from .tunnels import GRE, VXLAN

MIN_FRAME = 64  # minimum Ethernet frame incl. FCS


def make_udp(
    src_mac: str | int = "02:00:00:00:00:01",
    dst_mac: str | int = "02:00:00:00:00:02",
    src_ip: str | int = "10.0.0.1",
    dst_ip: str | int = "10.0.0.2",
    sport: int = 10000,
    dport: int = 20000,
    payload: bytes = b"",
    ttl: int = 64,
) -> Packet:
    """A plain Ethernet/IPv4/UDP packet."""
    return Packet(
        [
            Ethernet(dst_mac, src_mac, EtherType.IPV4),
            IPv4(src_ip, dst_ip, proto=IPProto.UDP, ttl=ttl),
            UDP(sport, dport),
        ],
        payload,
    )


def make_tcp(
    src_mac: str | int = "02:00:00:00:00:01",
    dst_mac: str | int = "02:00:00:00:00:02",
    src_ip: str | int = "10.0.0.1",
    dst_ip: str | int = "10.0.0.2",
    sport: int = 10000,
    dport: int = 80,
    flags: int = TCPFlags.ACK,
    seq: int = 0,
    ack: int = 0,
    payload: bytes = b"",
) -> Packet:
    """A plain Ethernet/IPv4/TCP packet."""
    return Packet(
        [
            Ethernet(dst_mac, src_mac, EtherType.IPV4),
            IPv4(src_ip, dst_ip, proto=IPProto.TCP),
            TCP(sport, dport, seq=seq, ack=ack, flags=flags),
        ],
        payload,
    )


def make_udp6(
    src_ip: str | int = "2001:db8::1",
    dst_ip: str | int = "2001:db8::2",
    sport: int = 10000,
    dport: int = 20000,
    payload: bytes = b"",
) -> Packet:
    """A plain Ethernet/IPv6/UDP packet."""
    return Packet(
        [
            Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", EtherType.IPV6),
            IPv6(src_ip, dst_ip, next_header=IPProto.UDP),
            UDP(sport, dport),
        ],
        payload,
    )


def make_icmp_echo(
    src_ip: str | int = "10.0.0.1",
    dst_ip: str | int = "10.0.0.2",
    identifier: int = 1,
    sequence: int = 1,
    payload: bytes = b"ping",
) -> Packet:
    """An ICMP echo request."""
    return Packet(
        [
            Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", EtherType.IPV4),
            IPv4(src_ip, dst_ip, proto=IPProto.ICMP),
            ICMP(ICMP.ECHO_REQUEST, identifier=identifier, sequence=sequence),
        ],
        payload,
    )


def make_dns_query(
    qname: str,
    qtype: int = QType.A,
    src_ip: str | int = "10.0.0.1",
    dst_ip: str | int = "8.8.8.8",
    sport: int = 33333,
    txid: int = 0x1234,
) -> Packet:
    """A DNS query over UDP/53."""
    message = DNSMessage(txid=txid, questions=[DNSQuestion(qname, qtype)])
    packet = make_udp(
        src_ip=src_ip, dst_ip=dst_ip, sport=sport, dport=UDPPort.DNS,
        payload=message.pack(),
    )
    return packet


def vlan_push(packet: Packet, vid: int, pcp: int = 0, service: bool = False) -> Packet:
    """Push an 802.1Q (or 802.1ad service) tag onto ``packet`` in place."""
    eth = packet.eth
    if eth is None:
        raise ValueError("cannot VLAN-tag a packet without Ethernet")
    tag = VLAN(vid=vid, pcp=pcp, ethertype=eth.ethertype)
    eth.ethertype = EtherType.QINQ if service else EtherType.VLAN
    packet.insert_after(eth, tag)
    return packet


def vlan_pop(packet: Packet) -> Packet:
    """Pop the outermost VLAN tag in place (no-op when untagged)."""
    eth = packet.eth
    tag = packet.get(VLAN)
    if eth is None or tag is None:
        return packet
    eth.ethertype = tag.ethertype
    packet.remove(tag)
    return packet


def gre_encap(
    packet: Packet,
    outer_src: str | int,
    outer_dst: str | int,
    key: int | None = None,
) -> Packet:
    """Wrap an IPv4 packet in GRE/IPv4, reusing the original Ethernet."""
    eth = packet.eth
    inner_ip = packet.ipv4
    if eth is None or inner_ip is None:
        raise ValueError("GRE encap requires an Ethernet/IPv4 packet")
    inner_index = packet.index_of(inner_ip)
    inner_headers = packet.headers[inner_index:]
    outer = IPv4(outer_src, outer_dst, proto=IPProto.GRE)
    gre = GRE(protocol=EtherType.IPV4, key=key)
    packet.headers = packet.headers[:inner_index] + [outer, gre] + inner_headers
    return packet


def vxlan_encap(
    packet: Packet,
    vni: int,
    outer_src: str | int,
    outer_dst: str | int,
    outer_src_mac: str | int = "02:aa:00:00:00:01",
    outer_dst_mac: str | int = "02:aa:00:00:00:02",
    sport: int = 49152,
) -> Packet:
    """Wrap a full Ethernet frame in VXLAN/UDP/IPv4/Ethernet."""
    inner_headers = packet.headers
    packet.headers = [
        Ethernet(outer_dst_mac, outer_src_mac, EtherType.IPV4),
        IPv4(outer_src, outer_dst, proto=IPProto.UDP),
        UDP(sport, UDPPort.VXLAN),
        VXLAN(vni),
    ] + inner_headers
    return packet


def pad_to_min(packet: Packet, min_wire_len: int = MIN_FRAME - 4) -> Packet:
    """Pad the payload with zeros up to the minimum Ethernet frame size."""
    deficit = min_wire_len - packet.wire_len
    if deficit > 0:
        packet.payload = packet.payload + b"\x00" * deficit
    return packet
