"""Ethernet, 802.1Q VLAN (and QinQ service tags), and ARP headers."""

from __future__ import annotations

import struct

from .._util import check_range, int_to_mac, ip_to_int, mac_to_int
from .base import EtherType, Header, require

_ETH = struct.Struct("!6s6sH")
_VLAN = struct.Struct("!HH")
_ARP = struct.Struct("!HHBBH6s4s6s4s")

BROADCAST_MAC = (1 << 48) - 1


class Ethernet(Header):
    """Ethernet II header (no FCS; the MAC model accounts for it)."""

    __slots__ = ("dst", "src", "ethertype")

    name = "ethernet"

    def __init__(
        self,
        dst: str | int = 0,
        src: str | int = 0,
        ethertype: int = EtherType.IPV4,
    ) -> None:
        self.dst = mac_to_int(dst)
        self.src = mac_to_int(src)
        self.ethertype = check_range("ethertype", ethertype, 16)

    header_len = 14  # fixed size: plain attribute, skips property dispatch

    @property
    def dst_mac(self) -> str:
        return int_to_mac(self.dst)

    @property
    def src_mac(self) -> str:
        return int_to_mac(self.src)

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST_MAC

    @property
    def is_multicast(self) -> bool:
        return bool((self.dst >> 40) & 0x01)

    def pack(self) -> bytes:
        return _ETH.pack(
            self.dst.to_bytes(6, "big"), self.src.to_bytes(6, "big"), self.ethertype
        )

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["Ethernet", int]:
        require(data, offset, 14, "Ethernet header")
        dst, src, ethertype = _ETH.unpack_from(data, offset)
        hdr = cls(int.from_bytes(dst, "big"), int.from_bytes(src, "big"), ethertype)
        return hdr, 14


class VLAN(Header):
    """An 802.1Q tag (also used for the 802.1ad service tag in QinQ).

    On the wire the tag sits *after* the Ethernet addresses; in our header
    stack it appears as its own 4-byte header whose ``ethertype`` names the
    next protocol, mirroring how hardware parsers treat it.
    """

    __slots__ = ("vid", "pcp", "dei", "ethertype")

    name = "vlan"

    def __init__(
        self,
        vid: int = 0,
        pcp: int = 0,
        dei: int = 0,
        ethertype: int = EtherType.IPV4,
    ) -> None:
        self.vid = check_range("vid", vid, 12)
        self.pcp = check_range("pcp", pcp, 3)
        self.dei = check_range("dei", dei, 1)
        self.ethertype = check_range("ethertype", ethertype, 16)

    header_len = 4

    @property
    def tci(self) -> int:
        """Tag Control Information: PCP(3) | DEI(1) | VID(12)."""
        return (self.pcp << 13) | (self.dei << 12) | self.vid

    def pack(self) -> bytes:
        return _VLAN.pack(self.tci, self.ethertype)

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["VLAN", int]:
        require(data, offset, 4, "802.1Q tag")
        tci, ethertype = _VLAN.unpack_from(data, offset)
        return cls(tci & 0xFFF, (tci >> 13) & 0x7, (tci >> 12) & 0x1, ethertype), 4


class ARP(Header):
    """ARP for IPv4-over-Ethernet (the only variant the toolkit needs)."""

    __slots__ = ("opcode", "sender_mac", "sender_ip", "target_mac", "target_ip")

    name = "arp"

    REQUEST = 1
    REPLY = 2

    def __init__(
        self,
        opcode: int = REQUEST,
        sender_mac: str | int = 0,
        sender_ip: str | int = 0,
        target_mac: str | int = 0,
        target_ip: str | int = 0,
    ) -> None:
        self.opcode = check_range("opcode", opcode, 16)
        self.sender_mac = mac_to_int(sender_mac)
        self.sender_ip = ip_to_int(sender_ip)
        self.target_mac = mac_to_int(target_mac)
        self.target_ip = ip_to_int(target_ip)

    header_len = 28

    def pack(self) -> bytes:
        return _ARP.pack(
            1,  # hardware type: Ethernet
            EtherType.IPV4,
            6,
            4,
            self.opcode,
            self.sender_mac.to_bytes(6, "big"),
            self.sender_ip.to_bytes(4, "big"),
            self.target_mac.to_bytes(6, "big"),
            self.target_ip.to_bytes(4, "big"),
        )

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["ARP", int]:
        require(data, offset, 28, "ARP header")
        (_, _, _, _, opcode, smac, sip, tmac, tip) = _ARP.unpack_from(data, offset)
        hdr = cls(
            opcode,
            int.from_bytes(smac, "big"),
            int.from_bytes(sip, "big"),
            int.from_bytes(tmac, "big"),
            int.from_bytes(tip, "big"),
        )
        return hdr, 28
