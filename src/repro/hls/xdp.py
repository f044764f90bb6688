"""An XDP/eBPF-flavored programming model for FlexSFP packet functions.

The paper's workflow (§4.2) starts from "the developer writes the packet
function (e.g., an XDP program)".  This module provides that front end: a
program is a Python function over an :class:`XdpContext` returning an
``XDP_*`` verdict, plus declared :class:`XdpMap` state.  The same program
object is both *executable* (it runs in the functional simulator as a
:class:`~repro.core.ppe.PPEApplication`) and *synthesizable* (its
declarations lower to a :class:`~repro.hls.ir.PipelineSpec` that the build
flow prices and packages into a bitstream).

Declarations carry the information an HLS flow would extract statically:
which headers the program parses, which fields it rewrites, and which maps
it consults.  At runtime the context records what the program actually
touched, so :meth:`XdpProgram.lint` can flag declarations that drift from
behaviour.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, Iterable

from ..core.ppe import Direction, PPEApplication, PPEContext, Verdict
from ..core.tables import ExactTable, LPMTable, Table
from ..errors import CompileError
from ..packet import (
    ARP,
    GRE,
    ICMP,
    INTShim,
    IPv4,
    IPv6,
    Packet,
    TCP,
    UDP,
    VLAN,
    VXLAN,
    Ethernet,
)
from .ir import PipelineSpec, Stage, StageKind


class XdpVerdict(IntEnum):
    """XDP program return codes (the subset FlexSFP honors)."""

    XDP_ABORTED = 0
    XDP_DROP = 1
    XDP_PASS = 2
    XDP_TX = 3  # bounce back out the ingress interface
    XDP_REDIRECT = 4  # hand to the control plane (FlexSFP interpretation)


_VERDICT_MAP = {
    XdpVerdict.XDP_ABORTED: Verdict.DROP,
    XdpVerdict.XDP_DROP: Verdict.DROP,
    XdpVerdict.XDP_PASS: Verdict.PASS,
    XdpVerdict.XDP_TX: Verdict.REFLECT,
    XdpVerdict.XDP_REDIRECT: Verdict.TO_CPU,
}

# Canonical parsed sizes per header type (fixed portions).
HEADER_BYTES: dict[type, int] = {
    Ethernet: 14,
    VLAN: 4,
    ARP: 28,
    IPv4: 20,
    IPv6: 40,
    TCP: 20,
    UDP: 8,
    ICMP: 8,
    GRE: 8,
    VXLAN: 8,
    INTShim: 4,
}

# Field widths (bits) for rewrite declarations: (header, field) -> bits.
FIELD_BITS: dict[tuple[type, str], int] = {
    (Ethernet, "dst"): 48,
    (Ethernet, "src"): 48,
    (Ethernet, "ethertype"): 16,
    (VLAN, "vid"): 12,
    (VLAN, "pcp"): 3,
    (IPv4, "src"): 32,
    (IPv4, "dst"): 32,
    (IPv4, "ttl"): 8,
    (IPv4, "dscp"): 6,
    (IPv6, "src"): 128,
    (IPv6, "dst"): 128,
    (IPv6, "hop_limit"): 8,
    (TCP, "sport"): 16,
    (TCP, "dport"): 16,
    (UDP, "sport"): 16,
    (UDP, "dport"): 16,
}


class XdpMap:
    """A declared BPF-style map backed by a runtime table.

    ``kind``: ``hash`` (exact match), ``lpm`` (longest prefix match), or
    ``array`` (dense integer index).  ``key_bits``/``value_bits`` size the
    synthesized storage; ``max_entries`` bounds the runtime table.
    """

    def __init__(
        self,
        name: str,
        kind: str = "hash",
        key_bits: int = 32,
        value_bits: int = 64,
        max_entries: int = 1024,
    ) -> None:
        if kind not in ("hash", "lpm", "array"):
            raise CompileError(f"unknown map kind {kind!r}")
        self.name = name
        self.kind = kind
        self.key_bits = key_bits
        self.value_bits = value_bits
        self.max_entries = max_entries
        if kind == "lpm":
            self.table: Table = LPMTable(name, max_entries, key_bits=key_bits)
        else:
            self.table = ExactTable(name, max_entries)
        if kind == "array":
            # Arrays are pre-populated with zeros like BPF arrays.
            for index in range(max_entries):
                self.table.insert(index, 0)

    # BPF-helper-shaped accessors -------------------------------------
    def lookup(self, key):
        return self.table.lookup(key)

    def update(self, key, value) -> None:
        self.table.insert(key, value)

    def delete(self, key) -> None:
        self.table.delete(key)

    def stage(self) -> Stage:
        """Lower this map to its pipeline table stage."""
        kind = {
            "hash": StageKind.EXACT_TABLE,
            "array": StageKind.EXACT_TABLE,
            "lpm": StageKind.LPM_TABLE,
        }[self.kind]
        return Stage(
            name=f"map:{self.name}",
            kind=kind,
            params={
                "entries": self.max_entries,
                "key_bits": self.key_bits,
                "value_bits": self.value_bits,
            },
        )


class XdpContext:
    """What an XDP program sees: the packet plus helper functions."""

    def __init__(self, packet: Packet, ppe_ctx: PPEContext) -> None:
        self.packet = packet
        self._ppe_ctx = ppe_ctx
        self.touched_headers: set[type] = set()
        self.rewritten_bits = 0
        self.used_checksum = False

    # Header access ----------------------------------------------------
    def header(self, header_type: type, index: int = 0):
        """Fetch a header (records the access for lint)."""
        self.touched_headers.add(header_type)
        return self.packet.get(header_type, index)

    @property
    def eth(self) -> Ethernet | None:
        return self.header(Ethernet)

    @property
    def ipv4(self) -> IPv4 | None:
        return self.header(IPv4)

    @property
    def ipv6(self) -> IPv6 | None:
        return self.header(IPv6)

    @property
    def tcp(self) -> TCP | None:
        return self.header(TCP)

    @property
    def udp(self) -> UDP | None:
        return self.header(UDP)

    # BPF-like helpers ---------------------------------------------------
    def rewrite(self, header, field: str, value) -> None:
        """Set ``header.field = value`` (records rewrite width for lint)."""
        bits = FIELD_BITS.get((type(header), field))
        if bits is None:
            raise CompileError(
                f"field {type(header).__name__}.{field} is not rewritable"
            )
        setattr(header, field, value)
        self.rewritten_bits += bits

    def csum_update(self) -> None:
        """Mark that the program relies on incremental checksum hardware.

        Functionally a no-op: the simulator recomputes checksums at
        serialization (RFC 1624 equivalence is covered by unit tests).
        """
        self.used_checksum = True

    def now_ns(self) -> int:
        return self._ppe_ctx.time_ns

    def emit(self, packet: Packet, direction: Direction | None = None) -> None:
        """Originate a packet (telemetry export, mirror, response)."""
        self._ppe_ctx.emit(
            packet, direction if direction is not None else self._ppe_ctx.direction
        )


ProgramFn = Callable[[XdpContext], XdpVerdict]


class XdpProgram(PPEApplication):
    """A packet function plus declarations, usable as a PPE application.

    Parameters
    ----------
    name:
        Application name (also the bitstream identity).
    func:
        The packet function, ``f(ctx: XdpContext) -> XdpVerdict``.
    maps:
        Declared state; each map becomes a table stage and is registered
        with the control plane.
    parses:
        Header types the program may touch (sizes the parser/deparser).
    rewrites:
        ``(header_type, field)`` pairs the program may rewrite (sizes the
        action unit).
    uses_checksum:
        Whether L3/L4 checksum update hardware is required.
    """

    def __init__(
        self,
        name: str,
        func: ProgramFn,
        maps: Iterable[XdpMap] = (),
        parses: Iterable[type] = (Ethernet, IPv4),
        rewrites: Iterable[tuple[type, str]] = (),
        uses_checksum: bool = False,
        buffer_frames: int = 2,
    ) -> None:
        super().__init__()
        self.name = name
        self.func = func
        self.maps = list(maps)
        self.parses = list(parses)
        self.rewrites = list(rewrites)
        self.uses_checksum = uses_checksum
        self.buffer_frames = buffer_frames
        self._observed_headers: set[type] = set()
        self._observed_rewrite_bits = 0
        for xdp_map in self.maps:
            self.tables.register(xdp_map.table)
        unknown = [h for h in self.parses if h not in HEADER_BYTES]
        if unknown:
            raise CompileError(f"cannot size parser for header types {unknown}")
        for pair in self.rewrites:
            if pair not in FIELD_BITS:
                raise CompileError(f"no width known for rewrite {pair}")

    # Runtime ----------------------------------------------------------
    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        xdp_ctx = XdpContext(packet, ctx)
        verdict = self.func(xdp_ctx)
        if not isinstance(verdict, XdpVerdict):
            raise CompileError(
                f"program {self.name!r} returned {verdict!r}, not an XdpVerdict"
            )
        self._observed_headers |= xdp_ctx.touched_headers
        self._observed_rewrite_bits = max(
            self._observed_rewrite_bits, xdp_ctx.rewritten_bits
        )
        self.count("packets", packet)
        return _VERDICT_MAP[verdict]

    # Synthesis ----------------------------------------------------------
    @property
    def declared_header_bytes(self) -> int:
        return sum(HEADER_BYTES[h] for h in self.parses)

    @property
    def declared_rewrite_bits(self) -> int:
        return sum(FIELD_BITS[pair] for pair in self.rewrites)

    def pipeline_spec(self) -> PipelineSpec:
        header_bytes = max(self.declared_header_bytes, 14)
        stages: list[Stage] = [
            Stage("parse", StageKind.PARSER, {"header_bytes": header_bytes})
        ]
        stages.extend(xdp_map.stage() for xdp_map in self.maps)
        rewrite_bits = self.declared_rewrite_bits
        if rewrite_bits:
            stages.append(
                Stage("act", StageKind.ACTION, {"rewrite_bits": rewrite_bits})
            )
        if self.uses_checksum:
            stages.append(Stage("csum", StageKind.CHECKSUM, {}))
        stages.append(
            Stage(
                "buffer",
                StageKind.FIFO,
                {
                    "depth_bytes": self.buffer_frames * 1518,
                    "metadata_bits": 192,
                    "metadata_entries": 16,
                },
            )
        )
        stages.append(
            Stage("deparse", StageKind.DEPARSER, {"header_bytes": header_bytes})
        )
        return PipelineSpec(
            name=self.name,
            stages=stages,
            description=f"XDP program {self.name!r}",
        )

    def lint(self) -> list[str]:
        """Warnings where runtime behaviour drifted from declarations."""
        warnings = []
        undeclared = self._observed_headers - set(self.parses)
        if undeclared:
            names = sorted(h.__name__ for h in undeclared)
            warnings.append(f"touched undeclared headers: {names}")
        if self._observed_rewrite_bits > self.declared_rewrite_bits:
            warnings.append(
                f"rewrote {self._observed_rewrite_bits} bits but declared "
                f"{self.declared_rewrite_bits}"
            )
        return warnings

    def config(self) -> dict:
        return {
            "maps": [
                {
                    "name": m.name,
                    "kind": m.kind,
                    "key_bits": m.key_bits,
                    "value_bits": m.value_bits,
                    "max_entries": m.max_entries,
                }
                for m in self.maps
            ],
            "parses": [h.__name__ for h in self.parses],
        }
