"""The paper's case study: a simple static one-to-one NAT (§5.1).

Translates source IPv4 addresses for outgoing (edge→line) traffic via a
32 768-entry exact-match table keyed by the original source address, with
incremental IPv4/L4 checksum updates.  In Two-Way-Core shells the reverse
direction untranslates destination addresses using the inverse mapping, so
return traffic reaches the original host.

The pipeline spec reproduces the Table 1 "NAT app" row: parser (Ethernet +
IPv4), hash + exact table sized at 32 768 × (32-bit key → 64-bit value)
⇒ 160 LSRAM blocks, a 32-bit rewrite action, the RFC 1624 checksum unit,
a two-frame store-and-forward buffer (36 uSRAM with metadata), and the
deparser.
"""

from __future__ import annotations

from .._util import int_to_ip, ip_to_int
from ..core.ppe import Direction, PPEApplication, PPEContext, Verdict
from ..core.tables import ExactTable
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet

PAPER_NAT_FLOWS = 32_768


class StaticNat(PPEApplication):
    """One-to-one source-IP NAT at the optical edge.

    Parameters
    ----------
    capacity:
        Maximum translations (the prototype stores 32 768 flows).
    translate_reverse:
        Also rewrite destination addresses of line→edge traffic using the
        inverse mapping (needed when deployed in a Two-Way-Core shell).
    miss_action:
        ``"pass"`` (default: forward untranslated, the paper's stateless
        behaviour) or ``"drop"``.
    """

    name = "nat"

    def __init__(
        self,
        capacity: int = PAPER_NAT_FLOWS,
        translate_reverse: bool = True,
        miss_action: str = "pass",
    ) -> None:
        super().__init__()
        if miss_action not in ("pass", "drop"):
            raise ConfigError(f"unknown miss_action {miss_action!r}")
        self.capacity = capacity
        self.translate_reverse = translate_reverse
        self.miss_action = miss_action
        self.nat_table: ExactTable[int, int] = ExactTable("nat", capacity)
        self.reverse_table: ExactTable[int, int] = ExactTable("nat_reverse", capacity)
        self.tables.register(self.nat_table)
        self.tables.register(self.reverse_table)

    # ------------------------------------------------------------------
    # Mapping management (used directly and via the control plane)
    # ------------------------------------------------------------------
    def add_mapping(self, original: str | int, translated: str | int) -> None:
        """Install ``original -> translated`` plus the inverse entry."""
        orig, trans = ip_to_int(original), ip_to_int(translated)
        self.nat_table.insert(orig, trans)
        self.reverse_table.insert(trans, orig)

    def remove_mapping(self, original: str | int) -> None:
        orig = ip_to_int(original)
        translated = self.nat_table.lookup(orig)
        self.nat_table.delete(orig)
        if translated is not None:
            self.reverse_table.delete(translated)

    def mapping_of(self, original: str | int) -> str | None:
        translated = self.nat_table.lookup(ip_to_int(original))
        return None if translated is None else int_to_ip(translated)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        ip = packet.ipv4
        if ip is None:
            self.count("non_ip", packet)
            return Verdict.PASS
        if ctx.direction is Direction.EDGE_TO_LINE:
            translated = self.nat_table.lookup(ip.src)
            if translated is None:
                self.count("miss", packet)
                return Verdict.DROP if self.miss_action == "drop" else Verdict.PASS
            ip.src = translated
            self.count("translated", packet)
            return Verdict.PASS
        if self.translate_reverse:
            original = self.reverse_table.lookup(ip.dst)
            if original is not None:
                ip.dst = original
                self.count("untranslated", packet)
        return Verdict.PASS

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def flow_key(self, packet: Packet):
        ip = packet.ipv4
        if ip is None:
            return None  # non-IP handling is trivial; not worth a cache slot
        return (ip.src, ip.dst)

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="static 1:1 source NAT (paper §5.1 case study)",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 34}),
                Stage(
                    "nat_lookup",
                    StageKind.EXACT_TABLE,
                    {"entries": self.capacity, "key_bits": 32, "value_bits": 64},
                ),
                Stage("rewrite", StageKind.ACTION, {"rewrite_bits": 32}),
                Stage("csum", StageKind.CHECKSUM, {}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {
                        "depth_bytes": 2 * 1518,
                        "metadata_bits": 192,
                        "metadata_entries": 16,
                    },
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 34}),
            ],
        )

    def config(self) -> dict:
        return {
            "capacity": self.capacity,
            "translate_reverse": self.translate_reverse,
            "miss_action": self.miss_action,
        }
