"""In-band network telemetry: INT source / transit / sink roles (§3).

"A FlexSFP could … insert lightweight metadata for in-band measurements,
similar to what has been demonstrated in in-band network telemetry (INT)."
Three deployable roles share one application class:

* ``source`` — inserts the INT shim after Ethernet and pushes this hop.
* ``transit`` — pushes a hop record onto packets that already carry a shim.
* ``sink`` — pops the shim, restores the original EtherType, and exports
  the collected hop stack to a collector via ``ctx.emit``.
"""

from __future__ import annotations

import struct

from .._util import check_ipv4, typed
from ..core.ppe import Direction, PPEApplication, PPEContext, Verdict
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import (
    Ethernet,
    EtherType,
    INTHop,
    INTShim,
    Packet,
    UDPPort,
    make_udp,
)

ROLES = ("source", "transit", "sink")
DIRECTIONS = (None, "edge->line", "line->edge")  # ``only_direction``

_new = object.__new__

_REPORT_HEADER = struct.Struct("!HHI")  # version, hop_count, device_id
REPORT_VERSION = 1


def pack_report(device_id: int, hops: list[INTHop]) -> bytes:
    """Serialize a sink report datagram."""
    return _REPORT_HEADER.pack(REPORT_VERSION, len(hops), device_id) + b"".join(
        hop.pack() for hop in hops
    )


def unpack_report(payload: bytes) -> tuple[int, list[INTHop]]:
    """Inverse of :func:`pack_report`: (device_id, hops)."""
    version, count, device_id = _REPORT_HEADER.unpack_from(payload, 0)
    if version != REPORT_VERSION:
        raise ConfigError(f"unknown INT report version {version}")
    hops = [
        INTHop.unpack_from(memoryview(payload), _REPORT_HEADER.size + i * INTHop.WIRE_LEN)
        for i in range(count)
    ]
    return device_id, hops


class InbandTelemetry(PPEApplication):
    """INT source/transit/sink packet function."""

    name = "int"

    def __init__(
        self,
        role: str = "source",
        max_hops: int = 8,
        collector_ip: str | int = "203.0.113.10",
        exporter_ip: str | int = "203.0.113.2",
        only_direction: str | None = "edge->line",
    ) -> None:
        super().__init__()
        if role not in ROLES:
            raise ConfigError(f"unknown INT role {role!r}; pick from {ROLES}")
        # A shim holds the source's own hop and at most 15 (a 4-bit field).
        if not 1 <= typed(max_hops, int, "INT max_hops") <= INTShim.MAX_HOPS_LIMIT:
            raise ConfigError(f"INT max_hops must be 1..15, got {max_hops}")
        if only_direction not in DIRECTIONS:
            raise ConfigError(f"INT only_direction {only_direction!r} is not one of {DIRECTIONS}")
        check_ipv4("INT", collector_ip=collector_ip, exporter_ip=exporter_ip)
        self.role = role
        self.max_hops = max_hops
        self.collector_ip = collector_ip
        self.exporter_ip = exporter_ip
        self.only_direction = only_direction
        self._only = None if only_direction is None else Direction(only_direction)

    def _hop(self, ctx: PPEContext) -> INTHop:
        """This hop's record by slot stores; a value out of range goes to
        the validating constructor, which raises its ``ConfigError``."""
        device_id, time_ns = ctx.device_id, ctx.time_ns
        depth = min(ctx.queue_depth, 0xFFFF)
        if not (0 <= device_id <= 0xFFFF and depth >= 0 and 0 <= time_ns < 1 << 64):
            INTHop(device_id, depth, 0, time_ns)
        hop = _new(INTHop)
        hop.device_id = device_id
        hop.queue_depth = depth
        hop.latency_ns = 0
        hop.ingress_ts_ns = time_ns
        return hop

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        only = self._only
        if only is not None and ctx.direction is not only:
            return Verdict.PASS
        if self.role == "source":
            return self._source(packet, ctx)
        if self.role == "transit":
            return self._transit(packet, ctx)
        return self._sink(packet, ctx)

    def _source(self, packet: Packet, ctx: PPEContext) -> Verdict:
        headers = packet.headers
        at = None  # ``packet.eth`` and ``packet.get(INTShim)`` in one pass
        for index, header in enumerate(headers):
            if isinstance(header, INTShim):
                return Verdict.PASS
            if at is None and isinstance(header, Ethernet):
                at, eth = index, header
        if at is None:
            return Verdict.PASS
        if not 0 <= eth.ethertype <= 0xFFFF:
            INTShim(eth.ethertype)  # raises, as a stamp of this frame did
        shim = _new(INTShim)
        shim.next_ethertype = eth.ethertype
        shim.max_hops = self.max_hops
        shim.hops = [self._hop(ctx)]  # max_hops >= 1: the own hop fits
        eth.ethertype = EtherType.INT_SHIM
        headers.insert(at + 1, shim)
        self.count("inserted", packet)
        return Verdict.PASS

    def _transit(self, packet: Packet, ctx: PPEContext) -> Verdict:
        shim = packet.get(INTShim)
        if shim is None:
            return Verdict.PASS
        if shim.push_hop(self._hop(ctx)):
            self.count("pushed", packet)
        else:
            self.count("stack_full", packet)
        return Verdict.PASS

    def _sink(self, packet: Packet, ctx: PPEContext) -> Verdict:
        shim = packet.get(INTShim)
        eth = packet.eth
        if shim is None or eth is None:
            return Verdict.PASS
        hops = list(shim.hops)
        eth.ethertype = shim.next_ethertype
        packet.remove(shim)
        report = make_udp(
            src_ip=self.exporter_ip,
            dst_ip=self.collector_ip,
            sport=UDPPort.INT_COLLECTOR,
            dport=UDPPort.INT_COLLECTOR,
            payload=pack_report(ctx.device_id, hops),
        )
        # The report follows the monitored traffic so it reaches the
        # collector behind the sink's egress side.
        ctx.emit(report, ctx.direction)
        self.count("terminated", packet)
        return Verdict.PASS

    def pipeline_spec(self) -> PipelineSpec:
        # Shim insertion/removal rewrites 4 B shim + 16 B hop + ethertype.
        return PipelineSpec(
            name=self.name,
            description=f"in-band telemetry ({self.role})",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 54}),
                Stage("ts", StageKind.TIMESTAMP, {}),
                Stage("edit", StageKind.ACTION, {"rewrite_bits": (4 + 16) * 8 + 16}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1538, "metadata_bits": 128},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 54}),
            ],
        )

    def config(self) -> dict:
        return {
            "role": self.role,
            "max_hops": self.max_hops,
            "collector_ip": self.collector_ip,
            "exporter_ip": self.exporter_ip,
            "only_direction": self.only_direction,
        }
