"""TCP, UDP, and ICMP headers."""

from __future__ import annotations

import struct

from .._util import check_range
from ..errors import ParseError, SerializationError
from .base import Header, require

_UDP = struct.Struct("!HHHH")
_TCP = struct.Struct("!HHIIHHHH")
_ICMP = struct.Struct("!BBHHH")


class UDP(Header):
    """UDP header; ``length``/``checksum`` of 0 are filled at serialization."""

    __slots__ = ("sport", "dport", "length", "checksum")

    name = "udp"

    def __init__(
        self,
        sport: int = 0,
        dport: int = 0,
        length: int = 0,
        checksum: int = 0,
    ) -> None:
        self.sport = check_range("sport", sport, 16)
        self.dport = check_range("dport", dport, 16)
        self.length = check_range("length", length, 16)
        self.checksum = check_range("checksum", checksum, 16)

    header_len = 8  # fixed size: plain attribute, skips property dispatch

    def pack(self) -> bytes:
        return _UDP.pack(self.sport, self.dport, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["UDP", int]:
        require(data, offset, 8, "UDP header")
        sport, dport, length, checksum = _UDP.unpack_from(data, offset)
        return cls(sport, dport, length, checksum), 8


class TCPFlags:
    """TCP flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80


class TCP(Header):
    """TCP header with options."""

    __slots__ = (
        "sport",
        "dport",
        "seq",
        "ack",
        "flags",
        "window",
        "checksum",
        "urgent",
        "options",
    )

    name = "tcp"

    def __init__(
        self,
        sport: int = 0,
        dport: int = 0,
        seq: int = 0,
        ack: int = 0,
        flags: int = TCPFlags.ACK,
        window: int = 65535,
        checksum: int = 0,
        urgent: int = 0,
        options: bytes = b"",
    ) -> None:
        self.sport = check_range("sport", sport, 16)
        self.dport = check_range("dport", dport, 16)
        self.seq = check_range("seq", seq, 32)
        self.ack = check_range("ack", ack, 32)
        self.flags = check_range("flags", flags, 8)
        self.window = check_range("window", window, 16)
        self.checksum = check_range("checksum", checksum, 16)
        self.urgent = check_range("urgent", urgent, 16)
        if len(options) % 4:
            raise SerializationError("TCP options must be 32-bit aligned")
        if len(options) > 40:
            raise SerializationError("TCP options exceed 40 bytes")
        self.options = bytes(options)

    @property
    def header_len(self) -> int:
        return 20 + len(self.options)

    @property
    def data_offset(self) -> int:
        return self.header_len // 4

    def pack(self) -> bytes:
        off_flags = (self.data_offset << 12) | self.flags
        head = _TCP.pack(
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            off_flags,
            self.window,
            self.checksum,
            self.urgent,
        )
        return head + self.options

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["TCP", int]:
        require(data, offset, 20, "TCP header")
        sport, dport, seq, ack, off_flags, window, checksum, urgent = _TCP.unpack_from(
            data, offset
        )
        data_offset = off_flags >> 12
        if data_offset < 5:
            raise ParseError(f"TCP data offset too small: {data_offset}")
        hlen = data_offset * 4
        require(data, offset, hlen, "TCP options")
        options = bytes(data[offset + 20 : offset + hlen])
        hdr = cls(
            sport,
            dport,
            seq=seq,
            ack=ack,
            flags=off_flags & 0x1FF & 0xFF,
            window=window,
            checksum=checksum,
            urgent=urgent,
            options=options,
        )
        return hdr, hlen


class ICMP(Header):
    """ICMP header (echo request/reply oriented; other types pass through)."""

    __slots__ = ("icmp_type", "code", "checksum", "identifier", "sequence")

    name = "icmp"

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11

    def __init__(
        self,
        icmp_type: int = ECHO_REQUEST,
        code: int = 0,
        checksum: int = 0,
        identifier: int = 0,
        sequence: int = 0,
    ) -> None:
        self.icmp_type = check_range("icmp_type", icmp_type, 8)
        self.code = check_range("code", code, 8)
        self.checksum = check_range("checksum", checksum, 16)
        self.identifier = check_range("identifier", identifier, 16)
        self.sequence = check_range("sequence", sequence, 16)

    header_len = 8

    def pack(self) -> bytes:
        return _ICMP.pack(
            self.icmp_type, self.code, self.checksum, self.identifier, self.sequence
        )

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["ICMP", int]:
        require(data, offset, 8, "ICMP header")
        icmp_type, code, checksum, identifier, sequence = _ICMP.unpack_from(data, offset)
        return cls(icmp_type, code, checksum, identifier, sequence), 8
