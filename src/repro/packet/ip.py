"""IPv4 and IPv6 headers."""

from __future__ import annotations

import struct

from .._util import check_range, int_to_ip, int_to_ip6, ip6_to_int, ip_to_int
from ..errors import ParseError, SerializationError
from .base import Header, IPProto, require
from .checksum import internet_checksum

_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_IPV6 = struct.Struct("!IHBB16s16s")


class IPv4(Header):
    """IPv4 header.

    ``total_length`` and ``checksum`` may be left at 0 and are filled in by
    :meth:`repro.packet.packet.Packet.to_bytes` (mirroring NIC offload).
    """

    __slots__ = (
        "src",
        "dst",
        "proto",
        "ttl",
        "dscp",
        "ecn",
        "identification",
        "flags",
        "frag_offset",
        "total_length",
        "checksum",
        "options",
    )

    name = "ipv4"

    def __init__(
        self,
        src: str | int = 0,
        dst: str | int = 0,
        proto: int = IPProto.UDP,
        ttl: int = 64,
        dscp: int = 0,
        ecn: int = 0,
        identification: int = 0,
        flags: int = 0,
        frag_offset: int = 0,
        total_length: int = 0,
        checksum: int = 0,
        options: bytes = b"",
    ) -> None:
        self.src = ip_to_int(src)
        self.dst = ip_to_int(dst)
        self.proto = check_range("proto", proto, 8)
        self.ttl = check_range("ttl", ttl, 8)
        self.dscp = check_range("dscp", dscp, 6)
        self.ecn = check_range("ecn", ecn, 2)
        self.identification = check_range("identification", identification, 16)
        self.flags = check_range("flags", flags, 3)
        self.frag_offset = check_range("frag_offset", frag_offset, 13)
        self.total_length = check_range("total_length", total_length, 16)
        self.checksum = check_range("checksum", checksum, 16)
        if len(options) % 4:
            raise SerializationError("IPv4 options must be 32-bit aligned")
        if len(options) > 40:
            raise SerializationError("IPv4 options exceed 40 bytes")
        self.options = bytes(options)

    @property
    def header_len(self) -> int:
        return 20 + len(self.options)

    @property
    def ihl(self) -> int:
        return self.header_len // 4

    @property
    def src_ip(self) -> str:
        return int_to_ip(self.src)

    @property
    def dst_ip(self) -> str:
        return int_to_ip(self.dst)

    def pack(self) -> bytes:
        tos = (self.dscp << 2) | self.ecn
        flags_frag = (self.flags << 13) | self.frag_offset
        head = _IPV4.pack(
            (4 << 4) | self.ihl,
            tos,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.proto,
            self.checksum,
            self.src.to_bytes(4, "big"),
            self.dst.to_bytes(4, "big"),
        )
        return head + self.options

    def verify_checksum(self) -> bool:
        """True iff the stored header checksum is valid."""
        return internet_checksum(self.pack()) == 0

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["IPv4", int]:
        require(data, offset, 20, "IPv4 header")
        (
            ver_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            proto,
            checksum,
            src,
            dst,
        ) = _IPV4.unpack_from(data, offset)
        version, ihl = ver_ihl >> 4, ver_ihl & 0xF
        if version != 4:
            raise ParseError(f"IPv4 version field is {version}")
        if ihl < 5:
            raise ParseError(f"IPv4 IHL too small: {ihl}")
        hlen = ihl * 4
        require(data, offset, hlen, "IPv4 options")
        options = bytes(data[offset + 20 : offset + hlen])
        hdr = cls(
            int.from_bytes(src, "big"),
            int.from_bytes(dst, "big"),
            proto=proto,
            ttl=ttl,
            dscp=tos >> 2,
            ecn=tos & 0x3,
            identification=identification,
            flags=flags_frag >> 13,
            frag_offset=flags_frag & 0x1FFF,
            total_length=total_length,
            checksum=checksum,
            options=options,
        )
        return hdr, hlen


class IPv6(Header):
    """IPv6 fixed header (extension headers are treated as payload)."""

    __slots__ = (
        "src",
        "dst",
        "next_header",
        "hop_limit",
        "traffic_class",
        "flow_label",
        "payload_length",
    )

    name = "ipv6"

    def __init__(
        self,
        src: str | int = 0,
        dst: str | int = 0,
        next_header: int = IPProto.UDP,
        hop_limit: int = 64,
        traffic_class: int = 0,
        flow_label: int = 0,
        payload_length: int = 0,
    ) -> None:
        self.src = ip6_to_int(src)
        self.dst = ip6_to_int(dst)
        self.next_header = check_range("next_header", next_header, 8)
        self.hop_limit = check_range("hop_limit", hop_limit, 8)
        self.traffic_class = check_range("traffic_class", traffic_class, 8)
        self.flow_label = check_range("flow_label", flow_label, 20)
        self.payload_length = check_range("payload_length", payload_length, 16)

    header_len = 40

    @property
    def src_ip(self) -> str:
        return int_to_ip6(self.src)

    @property
    def dst_ip(self) -> str:
        return int_to_ip6(self.dst)

    def pack(self) -> bytes:
        word0 = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return _IPV6.pack(
            word0,
            self.payload_length,
            self.next_header,
            self.hop_limit,
            self.src.to_bytes(16, "big"),
            self.dst.to_bytes(16, "big"),
        )

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["IPv6", int]:
        require(data, offset, 40, "IPv6 header")
        word0, payload_length, next_header, hop_limit, src, dst = _IPV6.unpack_from(
            data, offset
        )
        if word0 >> 28 != 6:
            raise ParseError(f"IPv6 version field is {word0 >> 28}")
        hdr = cls(
            int.from_bytes(src, "big"),
            int.from_bytes(dst, "big"),
            next_header=next_header,
            hop_limit=hop_limit,
            traffic_class=(word0 >> 20) & 0xFF,
            flow_label=word0 & 0xFFFFF,
            payload_length=payload_length,
        )
        return hdr, 40
