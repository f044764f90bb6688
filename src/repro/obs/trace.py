"""Per-packet trace spans: follow one frame through the cable.

The paper's in-band-telemetry pitch is that the cable can narrate what it
did to a packet.  This module is the simulation-side version of that
narration: an opt-in :class:`Tracer` is attached to the devices of
interest, packets are *admitted* on first ingress (subject to a sampling
limit), and every stage they traverse — MAC delivery, arbiter
classification, PPE service, application verdict, egress — appends a
:class:`TraceSpan` carrying virtual (simulated) timestamps, the verdict,
header mutations, and fast-path hit/miss.

Tracing is off unless a tracer is attached: hot paths guard with a single
``is not None`` check, so tracing-off runs are byte-identical to runs
built before this layer existed (asserted by the determinism tests).
All recorded timestamps are virtual nanoseconds, so traces themselves are
deterministic and can be golden-tested.

Spans dump as JSON Lines (one span per line, sorted keys) and are
queryable in tests via :meth:`Tracer.spans_for` / :meth:`Tracer.stages`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..packet import Packet

TRACE_ID_META = "trace_id"
#: Spans a tracer records before it stops recording.
MAX_SPANS = 1_000_000

# Stage names, in canonical pipeline order (used for documentation and
# test assertions; recording accepts any string).
STAGE_MAC_RX = "mac.rx"
STAGE_ARBITER = "arbiter"
STAGE_PPE = "ppe"
STAGE_APP = "app"
STAGE_EGRESS = "egress"

# Header fields captured for mutation diffs: (summary key, header
# property on Packet, field on the header object).
_HEADER_FIELDS: tuple[tuple[str, str, str], ...] = (
    ("eth.src", "eth", "src"),
    ("eth.dst", "eth", "dst"),
    ("eth.ethertype", "eth", "ethertype"),
    ("ipv4.src", "ipv4", "src"),
    ("ipv4.dst", "ipv4", "dst"),
    ("ipv4.ttl", "ipv4", "ttl"),
    ("ipv4.proto", "ipv4", "proto"),
    ("ipv6.src", "ipv6", "src"),
    ("ipv6.dst", "ipv6", "dst"),
    ("tcp.sport", "tcp", "sport"),
    ("tcp.dport", "tcp", "dport"),
    ("udp.sport", "udp", "sport"),
    ("udp.dport", "udp", "dport"),
)


class TraceSpan:
    """One stage crossing of one traced packet (virtual timestamps)."""

    __slots__ = (
        "trace_id",
        "seq",
        "stage",
        "component",
        "start_ns",
        "end_ns",
        "direction",
        "detail",
    )

    def __init__(
        self,
        trace_id: int,
        seq: int,
        stage: str,
        component: str,
        start_ns: int,
        end_ns: int | None,
        direction: str | None,
        detail: dict,
    ) -> None:
        self.trace_id = trace_id
        self.seq = seq
        self.stage = stage
        self.component = component
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.direction = direction
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "seq": self.seq,
            "stage": self.stage,
            "component": self.component,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "direction": self.direction,
            "detail": self.detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceSpan #{self.trace_id}.{self.seq} {self.stage}@"
            f"{self.component} t={self.start_ns}ns>"
        )


class Tracer:
    """Collects :class:`TraceSpan` records for admitted packets.

    ``limit`` caps how many distinct packets are admitted (None = every
    packet offered); :data:`MAX_SPANS` bounds memory on long runs —
    recording stops silently once reached, which keeps a forgotten tracer
    from consuming the heap.  A packet's trace id rides in
    ``packet.meta["trace_id"]``, so it survives module chains and copies.
    """

    def __init__(self, limit: int | None = None) -> None:
        self.limit = limit
        self.enabled = True
        self.spans: list[TraceSpan] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, packet: "Packet") -> bool:
        """Opt ``packet`` into tracing; True when it is (now) traced."""
        if not self.enabled:
            return False
        if TRACE_ID_META in packet.meta:
            return True
        if self.limit is not None and self._next_id >= self.limit:
            return False
        packet.meta[TRACE_ID_META] = self._next_id
        self._next_id += 1
        return True

    def is_traced(self, packet: "Packet") -> bool:
        return self.enabled and TRACE_ID_META in packet.meta

    @property
    def traced_packets(self) -> int:
        return self._next_id

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        packet: "Packet",
        stage: str,
        component: str,
        start_ns: int,
        end_ns: int | None = None,
        direction: object | None = None,
        **detail: object,
    ) -> None:
        """Append one span for ``packet`` (no-op for untraced packets)."""
        if not self.enabled or len(self.spans) >= MAX_SPANS:
            return
        trace_id = packet.meta.get(TRACE_ID_META)
        if trace_id is None:
            return
        self.spans.append(
            TraceSpan(
                trace_id=trace_id,
                seq=len(self.spans),
                stage=stage,
                component=component,
                start_ns=start_ns,
                end_ns=end_ns,
                direction=getattr(direction, "value", direction),
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # Header mutation capture
    # ------------------------------------------------------------------
    @staticmethod
    def snapshot_headers(packet: "Packet") -> dict[str, int]:
        """Cheap summary of the mutable header fields a PPE may rewrite."""
        summary: dict[str, int] = {}
        cache: dict[str, object] = {}
        for key, header_name, field in _HEADER_FIELDS:
            header = cache.get(header_name, False)
            if header is False:
                header = cache[header_name] = getattr(packet, header_name)
            if header is not None:
                summary[key] = getattr(header, field)
        return summary

    @staticmethod
    def header_diff(
        before: dict[str, int], packet: "Packet"
    ) -> dict[str, list[int | None]]:
        """``{field: [old, new]}`` for fields that changed since ``before``."""
        after = Tracer.snapshot_headers(packet)
        diff: dict[str, list[int | None]] = {}
        for key in before.keys() | after.keys():
            old = before.get(key)
            new = after.get(key)
            if old != new:
                diff[key] = [old, new]
        return diff

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------
    def spans_for(self, trace_id: int) -> list[TraceSpan]:
        """Spans of one trace in virtual-time order (stable by seq)."""
        selected = [s for s in self.spans if s.trace_id == trace_id]
        selected.sort(key=lambda s: (s.start_ns, s.seq))
        return selected

    def stages(self, trace_id: int) -> list[str]:
        """Stage names of one trace in virtual-time order."""
        return [s.stage for s in self.spans_for(trace_id)]

    def trace_ids(self) -> list[int]:
        return sorted({s.trace_id for s in self.spans})

    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]

    def to_jsonl(self, spans: Iterable[TraceSpan] | None = None) -> str:
        """One JSON object per line, sorted keys (schema-stable)."""
        selected = self.spans if spans is None else list(spans)
        return "\n".join(
            json.dumps(span.to_dict(), sort_keys=True) for span in selected
        )

    def clear(self) -> None:
        self.spans.clear()

    def metric_values(self) -> dict[str, int]:
        return {
            "traced_packets": self._next_id,
            "spans": len(self.spans),
        }
