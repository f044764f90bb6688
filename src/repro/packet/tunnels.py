"""Tunnel encapsulation headers: GRE and VXLAN.

IP-in-IP needs no header of its own (it is an IPv4 header with protocol 4
followed by another IPv4 header); the parser in :mod:`repro.packet.packet`
handles that chaining directly.
"""

from __future__ import annotations

import struct

from .._util import check_range
from ..errors import ParseError
from .base import EtherType, Header, require

_GRE_BASE = struct.Struct("!HH")
_VXLAN = struct.Struct("!BBHI")


class GRE(Header):
    """GRE header (RFC 2784/2890 subset: optional checksum and key)."""

    __slots__ = ("protocol", "key", "checksum_present")

    name = "gre"

    def __init__(
        self,
        protocol: int = EtherType.IPV4,
        key: int | None = None,
        checksum_present: bool = False,
    ) -> None:
        self.protocol = check_range("protocol", protocol, 16)
        self.key = None if key is None else check_range("key", key, 32)
        self.checksum_present = bool(checksum_present)

    @property
    def header_len(self) -> int:
        length = 4
        if self.checksum_present:
            length += 4  # checksum + reserved1
        if self.key is not None:
            length += 4
        return length

    def pack(self) -> bytes:
        flags = 0
        if self.checksum_present:
            flags |= 0x8000
        if self.key is not None:
            flags |= 0x2000
        out = _GRE_BASE.pack(flags, self.protocol)
        if self.checksum_present:
            out += b"\x00\x00\x00\x00"  # checksum left zero (like most encaps)
        if self.key is not None:
            out += self.key.to_bytes(4, "big")
        return out

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["GRE", int]:
        require(data, offset, 4, "GRE header")
        flags, protocol = _GRE_BASE.unpack_from(data, offset)
        if flags & 0x4000:
            raise ParseError("GRE routing-present packets are not supported")
        version = flags & 0x7
        if version != 0:
            raise ParseError(f"unsupported GRE version {version}")
        consumed = 4
        checksum_present = bool(flags & 0x8000)
        if checksum_present:
            require(data, offset, consumed + 4, "GRE checksum")
            consumed += 4
        key = None
        if flags & 0x2000:
            require(data, offset, consumed + 4, "GRE key")
            key = int.from_bytes(data[offset + consumed : offset + consumed + 4], "big")
            consumed += 4
        if flags & 0x1000:  # sequence number present
            require(data, offset, consumed + 4, "GRE sequence")
            consumed += 4
        return cls(protocol, key=key, checksum_present=checksum_present), consumed


class VXLAN(Header):
    """VXLAN header (RFC 7348); always followed by an inner Ethernet frame."""

    __slots__ = ("vni",)

    name = "vxlan"

    def __init__(self, vni: int = 0) -> None:
        self.vni = check_range("vni", vni, 24)

    header_len = 8

    def pack(self) -> bytes:
        return _VXLAN.pack(0x08, 0, 0, self.vni << 8)

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["VXLAN", int]:
        require(data, offset, 8, "VXLAN header")
        flags, _, _, vni_word = _VXLAN.unpack_from(data, offset)
        if not flags & 0x08:
            raise ParseError("VXLAN I flag not set")
        return cls(vni_word >> 8), 8
