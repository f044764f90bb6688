"""Katran-style L4 load balancing at the optical boundary (§3).

"Load balancing is another natural fit, such as hashing over packet
headers to distribute flows across uplinks, similar to Katran, but
executed directly at the optical boundary."

The balancer maps virtual services (VIP, port, proto) to backend pools and
steers flows with a deterministic hash over the 5-tuple, so a flow always
lands on the same backend (consistent within a configured pool
generation).  Selected packets get their destination IP/MAC rewritten —
the simple DSR-ish variant that fits a compact PPE chain.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from .._util import ip_to_int, mac_to_int
from ..core.ppe import PPEApplication, PPEContext, Verdict
from ..core.tables import ExactTable
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet


@dataclass(frozen=True)
class Backend:
    """One real server behind a VIP."""

    ip: str
    mac: str
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError("backend weight must be positive")


def flow_hash(tuple5: tuple[int, int, int, int, int]) -> int:
    """Deterministic flow hash (CRC32 over the packed 5-tuple)."""
    src, dst, proto, sport, dport = tuple5
    key = (
        src.to_bytes(4, "big")
        + dst.to_bytes(4, "big")
        + proto.to_bytes(1, "big")
        + sport.to_bytes(2, "big")
        + dport.to_bytes(2, "big")
    )
    return zlib.crc32(key)


class L4LoadBalancer(PPEApplication):
    """Hash-based VIP → backend steering."""

    name = "loadbalancer"

    def __init__(self, capacity: int = 64, ring_slots: int = 256) -> None:
        super().__init__()
        if ring_slots <= 0:
            raise ConfigError("ring_slots must be positive")
        self.capacity = capacity
        self.ring_slots = ring_slots
        # (vip, port, proto) -> list of Backend expanded into a hash ring.
        self.vips: ExactTable[tuple[int, int, int], list[Backend]] = ExactTable(
            "vips", capacity
        )
        self.tables.register(self.vips)

    def add_service(
        self, vip: str, port: int, proto: int, backends: list[Backend]
    ) -> None:
        """Register (or atomically update) a virtual service."""
        if not backends:
            raise ConfigError("a service needs at least one backend")
        self.vips.insert((ip_to_int(vip), port, proto), list(backends))

    def _ring(self, backends: list[Backend]) -> list[Backend]:
        """Weight-expanded backend ring of ``ring_slots`` entries."""
        weighted: list[Backend] = []
        for backend in backends:
            weighted.extend([backend] * backend.weight)
        return [weighted[i % len(weighted)] for i in range(self.ring_slots)]

    def select_backend(self, packet: Packet) -> Backend | None:
        """Which backend the hash steers this packet to (None = no VIP)."""
        tuple5 = packet.five_tuple()
        if tuple5 is None:
            return None
        src, dst, proto, _sport, dport = tuple5
        backends = self.vips.lookup((dst, dport, proto))
        if backends is None:
            return None
        ring = self._ring(backends)
        return ring[flow_hash(tuple5) % self.ring_slots]

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        backend = self.select_backend(packet)
        if backend is None:
            self.count("no_vip", packet)
            return Verdict.PASS
        ip = packet.ipv4
        eth = packet.eth
        assert ip is not None and eth is not None  # five_tuple() guaranteed IPv4
        ip.dst = ip_to_int(backend.ip)
        eth.dst = mac_to_int(backend.mac)
        self.count("steered", packet)
        return Verdict.PASS

    def flow_key(self, packet: Packet):
        tuple5 = packet.five_tuple()
        if tuple5 is None:
            # Every non-IP frame takes the same no-VIP path.
            return ("no-flow",)
        return tuple5

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="Katran-like L4 load balancer",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 54}),
                Stage("hash", StageKind.HASH, {"key_bits": 104}),
                Stage(
                    "vip_lookup",
                    StageKind.EXACT_TABLE,
                    {"entries": self.capacity, "key_bits": 56, "value_bits": 16},
                ),
                Stage(
                    "ring",
                    StageKind.EXACT_TABLE,
                    {
                        "entries": self.capacity * self.ring_slots,
                        "key_bits": 16,
                        "value_bits": 80,  # backend IP + MAC
                    },
                ),
                Stage("rewrite", StageKind.ACTION, {"rewrite_bits": 80}),
                Stage("csum", StageKind.CHECKSUM, {}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 192},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 54}),
            ],
        )

    def config(self) -> dict:
        return {"capacity": self.capacity, "ring_slots": self.ring_slots}
