"""Header base class and protocol-number registries.

Headers are lightweight mutable objects with integer-valued fields.  Each
header knows how to ``pack`` itself to wire bytes and how to ``unpack`` from
a buffer.  Parser dispatch (which header follows which) lives in
:mod:`repro.packet.packet`, keeping individual headers independent.
"""

from __future__ import annotations

from typing import Callable, ClassVar

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


class Record:
    """A slotted record of wire fields: the base of every header and of
    :class:`~repro.packet.telemetry.INTHop`.

    Each subclass lists its fields in ``__slots__``, so an instance holds
    exactly those fields and a misspelt store raises ``AttributeError``.
    When a subclass is defined, its ``copy`` is generated from the slots:
    one allocation plus one store per field, the way :mod:`dataclasses`
    generates ``__init__``.  Equality compares the same fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__slots__" not in vars(cls):
            raise TypeError(f"{cls.__name__} must declare __slots__ (its wire fields)")
        if "copy" not in vars(cls):
            cls.copy = slotted_copy(cls)

    def copy(self) -> "Record":
        """An independent record: one allocation plus one store per field.
        Fields hold immutable values (a subclass with a mutable one,
        ``INTShim.hops``, writes its own ``copy`` and copies that too)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(other, f) == getattr(self, f) for f in fields_of(type(self))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields_of(type(self)))
        return f"{self.__class__.__name__}({values})"


def fields_of(cls: type) -> tuple[str, ...]:
    """Every slot ``cls`` and its bases declare, base classes first."""
    fields: list[str] = []
    for klass in reversed(cls.__mro__):
        slots = vars(klass).get("__slots__", ())
        fields.extend((slots,) if isinstance(slots, str) else slots)
    return tuple(fields)


def slotted_copy(cls: type) -> Callable:
    """Generate a ``copy`` for ``cls``: one allocation plus one store per slot.

    Compiled under this file's name, so profilers and the call census
    attribute it to the packet layer.
    """
    stores = "".join(f"    clone.{f} = self.{f}\n" for f in fields_of(cls))
    source = f"def copy(self):\n    clone = _new(cls)\n{stores}    return clone\n"
    namespace: dict = {"_new": object.__new__, "cls": cls}
    exec(compile(source, __file__, "exec"), namespace)
    copy = namespace["copy"]
    copy.__qualname__ = f"{cls.__qualname__}.copy"
    copy.__doc__ = Record.copy.__doc__
    return copy


class Header(Record):
    """A single protocol header.

    Subclasses are simple records: integer fields, a fixed (or computed)
    ``header_len``, ``pack``/``unpack`` symmetry, and equality by field
    values.  They intentionally carry no parsing context.

    A plain class, not an ``ABC``: ``ABCMeta`` makes every ``isinstance``
    that misses a Python-level call, several per simulated frame.  What a
    subclass must define is checked once, when it is defined: the three
    methods below, then (in :class:`Record`) its ``__slots__``.
    """

    __slots__ = ()

    name: ClassVar[str] = "header"

    def __init_subclass__(cls, **kwargs) -> None:
        for required in ("header_len", "pack", "unpack"):
            if next(k for k in cls.__mro__ if required in vars(k)) is Header:
                raise TypeError(f"{cls.__name__} must define Header.{required}")
        super().__init_subclass__(**kwargs)

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


def require(data: memoryview, offset: int, count: int, what: str) -> None:
    """Raise :class:`ParseError` unless ``count`` bytes remain at ``offset``."""
    if offset + count > len(data):
        raise ParseError(
            f"truncated {what}: need {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )
