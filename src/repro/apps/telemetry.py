"""NetFlow-like in-line flow telemetry (§3, Monitoring & Observability).

"A FlexSFP could export NetFlow-like stats … without incurring high
overhead."  The application keeps a bounded flow cache keyed by 5-tuple,
optionally samples 1-in-N packets, and periodically exports expired
records as compact binary UDP datagrams toward a collector — originated by
the PPE itself via ``ctx.emit`` (the SFP becomes a telemetry source, not
just a forwarder).

Export record wire format (big-endian, 32 bytes per record)::

    src(4) dst(4) proto(1) pad(1) sport(2) dport(2) pad(2)
    packets(4) bytes(4) first_ns_lo(4) last_ns_lo(4)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .._util import check_ipv4
from ..core.ppe import Direction, PPEApplication, PPEContext, Verdict
from ..core.tables import ExactTable
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet, UDPPort, make_udp

_RECORD = struct.Struct("!4s4sBxHHxxIIII")
_EXPORT_HEADER = struct.Struct("!HHIQ")  # version, count, device_id, ts_ns
EXPORT_VERSION = 5
RECORD_BYTES = _RECORD.size


@dataclass
class FlowRecord:
    """Accumulated statistics for one flow."""

    packets: int = 0
    bytes: int = 0
    first_ns: int = 0
    last_ns: int = 0

    def update(self, num_bytes: int, now_ns: int) -> None:
        if self.packets == 0:
            self.first_ns = now_ns
        self.packets += 1
        self.bytes += num_bytes
        self.last_ns = now_ns


def pack_records(
    records: list[tuple[tuple[int, int, int, int, int], FlowRecord]],
    device_id: int,
    now_ns: int,
) -> bytes:
    """Serialize an export datagram."""
    body = _EXPORT_HEADER.pack(EXPORT_VERSION, len(records), device_id, now_ns)
    for (src, dst, proto, sport, dport), record in records:
        body += _RECORD.pack(
            src.to_bytes(4, "big"),
            dst.to_bytes(4, "big"),
            proto,
            sport,
            dport,
            record.packets,
            record.bytes & 0xFFFFFFFF,
            record.first_ns & 0xFFFFFFFF,
            record.last_ns & 0xFFFFFFFF,
        )
    return body


def unpack_records(
    payload: bytes,
) -> tuple[int, int, list[tuple[tuple[int, int, int, int, int], FlowRecord]]]:
    """Inverse of :func:`pack_records`: (device_id, ts_ns, records)."""
    version, count, device_id, ts_ns = _EXPORT_HEADER.unpack_from(payload, 0)
    if version != EXPORT_VERSION:
        raise ConfigError(f"unknown telemetry export version {version}")
    records = []
    offset = _EXPORT_HEADER.size
    for _ in range(count):
        src, dst, proto, sport, dport, pkts, nbytes, first, last = _RECORD.unpack_from(
            payload, offset
        )
        offset += RECORD_BYTES
        key = (
            int.from_bytes(src, "big"),
            int.from_bytes(dst, "big"),
            proto,
            sport,
            dport,
        )
        records.append(
            (key, FlowRecord(packets=pkts, bytes=nbytes, first_ns=first, last_ns=last))
        )
    return device_id, ts_ns, records


class FlowTelemetry(PPEApplication):
    """Flow accounting with inline export."""

    name = "telemetry"

    def __init__(
        self,
        capacity: int = 4096,
        sample_rate: int = 1,
        export_interval_ns: int = 1_000_000_000,
        collector_ip: str | int = "203.0.113.10",
        exporter_ip: str | int = "203.0.113.1",
        max_records_per_export: int = 30,
    ) -> None:
        super().__init__()
        if sample_rate < 1:
            raise ConfigError("sample_rate must be >= 1 (1 = every packet)")
        check_ipv4("telemetry", collector_ip=collector_ip, exporter_ip=exporter_ip)
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.export_interval_ns = export_interval_ns
        self.collector_ip = collector_ip
        self.exporter_ip = exporter_ip
        self.max_records_per_export = max_records_per_export
        self.flows: ExactTable[tuple[int, int, int, int, int], FlowRecord] = ExactTable(
            "flows", capacity
        )
        self.tables.register(self.flows)
        self._sample_counter = 0
        self._last_export_ns = 0
        self.exports_sent = 0

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        tuple5 = packet.five_tuple()
        if tuple5 is not None and self._sampled():
            record = self.flows.lookup(tuple5)
            if record is None:
                if len(self.flows) < self.capacity:
                    record = FlowRecord()
                    self.flows.insert(tuple5, record)
                else:
                    self.count("cache_full", packet)
            if record is not None:
                record.update(packet.wire_len, ctx.time_ns)
        if ctx.time_ns - self._last_export_ns >= self.export_interval_ns:
            self._export(ctx)
        return Verdict.PASS

    def _sampled(self) -> bool:
        self._sample_counter += 1
        if self._sample_counter >= self.sample_rate:
            self._sample_counter = 0
            return True
        return False

    def _export(self, ctx: PPEContext) -> None:
        """Emit expired flow records toward the collector."""
        self._last_export_ns = ctx.time_ns
        batch: list[tuple[tuple[int, int, int, int, int], FlowRecord]] = []
        for key, record in self.flows.items():
            batch.append((key, record))
            if len(batch) >= self.max_records_per_export:
                break
        if not batch:
            return
        for key, _ in batch:
            self.flows.delete(key)
        report = make_udp(
            src_ip=self.exporter_ip,
            dst_ip=self.collector_ip,
            sport=UDPPort.NETFLOW,
            dport=UDPPort.NETFLOW,
            payload=pack_records(batch, ctx.device_id, ctx.time_ns),
        )
        ctx.emit(report, Direction.EDGE_TO_LINE)
        self.exports_sent += 1
        self.count("exports", report)

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="NetFlow-like flow telemetry exporter",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 54}),
                Stage("ts", StageKind.TIMESTAMP, {}),
                Stage(
                    "flow_cache",
                    StageKind.EXACT_TABLE,
                    {"entries": self.capacity, "key_bits": 104, "value_bits": 160},
                ),
                Stage("stats", StageKind.COUNTERS, {"counters": 64}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 192},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 54}),
            ],
        )

    def config(self) -> dict:
        return {
            "capacity": self.capacity,
            "sample_rate": self.sample_rate,
            "export_interval_ns": self.export_interval_ns,
            "collector_ip": self.collector_ip,
            "exporter_ip": self.exporter_ip,
            "max_records_per_export": self.max_records_per_export,
        }
