"""Header base class and protocol-number registries.

Headers are lightweight mutable objects with integer-valued fields.  Each
header knows how to ``pack`` itself to wire bytes and how to ``unpack`` from
a buffer.  Parser dispatch (which header follows which) lives in
:mod:`repro.packet.packet`, keeping individual headers independent.
"""

from __future__ import annotations

from typing import ClassVar

from ..errors import ParseError


class EtherType:
    """Well-known EtherType values used by the toolkit."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100
    QINQ = 0x88A8
    IPV6 = 0x86DD
    FLEXSFP_MGMT = 0x88B5  # IEEE local-experimental; FlexSFP control plane
    INT_SHIM = 0x88B6  # IEEE local-experimental; INT-over-Ethernet shim


class IPProto:
    """IP protocol numbers used by the toolkit."""

    ICMP = 1
    IPIP = 4
    TCP = 6
    UDP = 17
    GRE = 47
    ICMPV6 = 58


class UDPPort:
    """UDP ports with special parser/application meaning."""

    DNS = 53
    DOH_QUIC = 443
    VXLAN = 4789
    NETFLOW = 2055
    INT_COLLECTOR = 5605


class Header:
    """A single protocol header.

    Subclasses are simple records: integer fields, a fixed (or computed)
    ``header_len``, ``pack``/``unpack`` symmetry, and equality by field
    values.  They intentionally carry no parsing context.

    A plain class, not an ``ABC``: ``ABCMeta`` makes every ``isinstance``
    that misses a Python-level call, several per simulated frame.  What a
    subclass must define is checked once, when it is defined.
    """

    name: ClassVar[str] = "header"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for required in ("header_len", "pack", "unpack"):
            if next(k for k in cls.__mro__ if required in vars(k)) is Header:
                raise TypeError(f"{cls.__name__} must define Header.{required}")

    @property
    def header_len(self) -> int:
        """Length of this header on the wire, in bytes."""
        raise NotImplementedError

    def pack(self) -> bytes:
        """Serialize the header to wire format."""
        raise NotImplementedError

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["Header", int]:
        """Parse a header at ``offset``; return ``(header, bytes_consumed)``."""
        raise NotImplementedError

    def copy(self) -> "Header":
        """One allocation, one dict copy: fields hold immutable values (a
        subclass with a mutable one, ``INTShim.hops``, copies that too)."""
        clone = object.__new__(self.__class__)
        clone.__dict__ = self.__dict__.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.__class__.__name__}({fields})"


def require(data: memoryview, offset: int, count: int, what: str) -> None:
    """Raise :class:`ParseError` unless ``count`` bytes remain at ``offset``."""
    if offset + count > len(data):
        raise ParseError(
            f"truncated {what}: need {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )
