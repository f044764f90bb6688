"""Packet sanitization and protocol validation (§3).

"Inline security use cases may also include packet sanitization and
protocol validation, such as removing deprecated headers, blocking
malformed packets…"  The sanitizer screens traffic before it reaches the
NIC or switch: invalid checksums, expired TTLs, martian sources, runt
payloads, and (optionally) deprecated IPv4 options are dropped or
stripped at the optical edge.
"""

from __future__ import annotations

from .._util import ip_to_int
from ..core.ppe import PPEApplication, PPEContext, Verdict
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet

# Default martian source prefixes: (prefix, length).
DEFAULT_MARTIANS = (
    ("0.0.0.0", 8),
    ("127.0.0.0", 8),
    ("240.0.0.0", 4),
)


class PacketSanitizer(PPEApplication):
    """Stateless protocol validation and header hygiene."""

    name = "sanitizer"

    def __init__(
        self,
        verify_checksums: bool = True,
        drop_expired_ttl: bool = True,
        drop_martians: bool = True,
        strip_ipv4_options: bool = True,
        min_udp_payload: int = 0,
        martians: tuple[tuple[str, int], ...] = DEFAULT_MARTIANS,
    ) -> None:
        super().__init__()
        self.verify_checksums = verify_checksums
        self.drop_expired_ttl = drop_expired_ttl
        self.drop_martians = drop_martians
        self.strip_ipv4_options = strip_ipv4_options
        self.min_udp_payload = min_udp_payload
        self._martians = [  # (network, shift)
            (ip_to_int(prefix) >> (32 - length), 32 - length) for prefix, length in martians
        ]

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        ip = packet.ipv4
        if ip is None:
            return Verdict.PASS
        if self.verify_checksums and ip.checksum and not ip.verify_checksum():
            self.count("bad_checksum", packet)
            return Verdict.DROP
        if self.drop_expired_ttl and ip.ttl == 0:
            self.count("expired_ttl", packet)
            return Verdict.DROP
        if self.drop_martians:
            src = ip.src
            for network, shift in self._martians:
                if src >> shift == network:
                    self.count("martian", packet)
                    return Verdict.DROP
        # No payload is shorter than the default floor of 0: only a set
        # floor looks for the UDP header.
        if len(packet.payload) < self.min_udp_payload and packet.udp is not None:
            self.count("runt_payload", packet)
            return Verdict.DROP
        if self.strip_ipv4_options and ip.options:
            # Deprecated header removal: clear options, checksum refreshed
            # at serialization (incremental update in hardware).
            ip.options = b""
            self.count("options_stripped", packet)
        self.count("clean", packet)
        return Verdict.PASS

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="packet sanitization / protocol validation",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 74}),
                Stage("validate", StageKind.ACTION, {"rewrite_bits": 40 * 8}),
                Stage("csum", StageKind.CHECKSUM, {}),
                Stage("stats", StageKind.COUNTERS, {"counters": 16}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 128},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 74}),
            ],
        )

    def config(self) -> dict:
        return {
            "verify_checksums": self.verify_checksums,
            "drop_expired_ttl": self.drop_expired_ttl,
            "drop_martians": self.drop_martians,
            "strip_ipv4_options": self.strip_ipv4_options,
            "min_udp_payload": self.min_udp_payload,
        }


class Passthrough(PPEApplication):
    """A no-op application: the baseline for latency/power comparisons."""

    name = "passthrough"

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        self.count("passed", packet)
        return Verdict.PASS

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="transparent forwarder",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 14}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 64},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 14}),
            ],
        )
