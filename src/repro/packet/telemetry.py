"""In-band telemetry headers: an INT-style shim and per-hop metadata.

The paper (§3 *Monitoring and Observability*) envisions FlexSFP inserting
"lightweight metadata for in-band measurements, similar to INT".  We define a
compact INT-over-Ethernet shim (local-experimental EtherType 0x88B6): a fixed
shim header followed by a stack of fixed-size per-hop metadata records, newest
first — the same layout idea as INT-MD, sized for a 64-bit datapath.
"""

from __future__ import annotations

import copy
import struct

from .._util import check_range
from ..errors import ParseError
from .base import Header, require

_SHIM = struct.Struct("!BBH")
_HOP = struct.Struct("!HHIQ")


class INTHop:
    """One per-hop telemetry record (12.7 Gbps-friendly fixed 16 bytes)."""

    WIRE_LEN = 16

    def __init__(
        self,
        device_id: int = 0,
        queue_depth: int = 0,
        latency_ns: int = 0,
        ingress_ts_ns: int = 0,
    ) -> None:
        self.device_id = check_range("device_id", device_id, 16)
        self.queue_depth = check_range("queue_depth", queue_depth, 16)
        self.latency_ns = check_range("latency_ns", latency_ns, 32)
        self.ingress_ts_ns = check_range("ingress_ts_ns", ingress_ts_ns, 64)

    def pack(self) -> bytes:
        return _HOP.pack(
            self.device_id, self.queue_depth, self.latency_ns, self.ingress_ts_ns
        )

    @classmethod
    def unpack_from(cls, view: memoryview, offset: int) -> "INTHop":
        device_id, queue_depth, latency_ns, ts = _HOP.unpack_from(view, offset)
        return cls(device_id, queue_depth, latency_ns, ts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, INTHop) and other.__dict__ == self.__dict__

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"INTHop(device_id={self.device_id}, queue_depth={self.queue_depth}, "
            f"latency_ns={self.latency_ns})"
        )


class INTShim(Header):
    """INT shim header carrying a stack of :class:`INTHop` records.

    Fields:
      * ``next_ethertype`` — the EtherType of the encapsulated protocol
        (the shim is inserted between Ethernet and L3).
      * ``max_hops`` — source-configured bound on the stack depth.
      * ``hops`` — per-hop records, most recent first.
    """

    name = "int_shim"

    MAX_HOPS_LIMIT = 15

    def __init__(
        self,
        next_ethertype: int = 0x0800,
        max_hops: int = 8,
        hops: list[INTHop] | None = None,
    ) -> None:
        self.next_ethertype = check_range("next_ethertype", next_ethertype, 16)
        self.max_hops = check_range("max_hops", max_hops, 4)
        self.hops = list(hops or [])

    @property
    def header_len(self) -> int:
        return 4 + INTHop.WIRE_LEN * len(self.hops)

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def exceeded(self) -> bool:
        """True when the stack is full and hops must stop pushing."""
        return len(self.hops) >= self.max_hops

    def push_hop(self, hop: INTHop) -> bool:
        """Prepend a hop record; returns False (no-op) if the stack is full."""
        if self.exceeded:
            return False
        self.hops.insert(0, hop)
        return True

    def pack(self) -> bytes:
        head = _SHIM.pack((self.max_hops << 4) | len(self.hops), 0, self.next_ethertype)
        return head + b"".join(hop.pack() for hop in self.hops)

    @classmethod
    def unpack(cls, data: memoryview, offset: int) -> tuple["INTShim", int]:
        require(data, offset, 4, "INT shim")
        counts, _, next_ethertype = _SHIM.unpack_from(data, offset)
        max_hops, hop_count = counts >> 4, counts & 0xF
        if hop_count > max_hops:
            raise ParseError(f"INT hop count {hop_count} exceeds max {max_hops}")
        total = 4 + INTHop.WIRE_LEN * hop_count
        require(data, offset, total, "INT hop stack")
        hops = [
            INTHop.unpack_from(data, offset + 4 + i * INTHop.WIRE_LEN)
            for i in range(hop_count)
        ]
        return cls(next_ethertype, max_hops, hops), total

    def copy(self) -> "INTShim":
        clone = super().copy()
        clone.hops = [copy.copy(hop) for hop in self.hops]  # records are mutable
        return clone
