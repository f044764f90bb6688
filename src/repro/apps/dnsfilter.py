"""DNS / DoH filtering at the optical edge (§2.1, §3; P4DDPI-style).

Two enforcement mechanisms:

* **DNS blocklist** — parse UDP/53 queries in the data plane and drop
  queries whose QNAME (or any parent domain) is blocked.
* **DoH blocking** — per-subscriber policies such as "DoH blocking"
  (§2.1): drop TCP/UDP 443 traffic toward known DoH resolver addresses,
  forcing clients back to inspectable cleartext DNS.
"""

from __future__ import annotations

from .._util import ip_to_int
from ..core.ppe import PPEApplication, PPEContext, Verdict
from ..core.tables import ExactTable
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet, TCP, UDP


def domain_suffixes(qname: str) -> list[str]:
    """The domain itself plus every parent: ``a.b.c`` → [a.b.c, b.c, c]."""
    labels = qname.rstrip(".").lower().split(".")
    return [".".join(labels[i:]) for i in range(len(labels))]


class DnsFilter(PPEApplication):
    """Domain blocklisting plus DoH resolver blocking."""

    name = "dnsfilter"

    def __init__(
        self,
        domain_capacity: int = 8192,
        resolver_capacity: int = 256,
        block_doh: bool = True,
    ) -> None:
        super().__init__()
        self.domain_capacity = domain_capacity
        self.resolver_capacity = resolver_capacity
        self.block_doh = block_doh
        # Domains are stored by exact string; parents are probed at lookup,
        # mirroring how the hardware hashes each suffix in turn.
        self.blocked_domains: ExactTable[str, bool] = ExactTable(
            "blocked_domains", domain_capacity
        )
        self.doh_resolvers: ExactTable[int, bool] = ExactTable(
            "doh_resolvers", resolver_capacity
        )
        self.tables.register(self.blocked_domains)
        self.tables.register(self.doh_resolvers)

    def block_domain(self, domain: str) -> None:
        """Block ``domain`` and every subdomain of it."""
        self.blocked_domains.insert(domain.rstrip(".").lower(), True)

    def add_doh_resolver(self, ip: str) -> None:
        """Register a known DoH resolver address."""
        self.doh_resolvers.insert(ip_to_int(ip), True)

    def is_blocked(self, qname: str) -> bool:
        return any(
            self.blocked_domains.lookup(suffix) for suffix in domain_suffixes(qname)
        )

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        # DoH blocking: port 443 toward a known resolver.
        if self.block_doh:
            ip = packet.ipv4
            l4 = packet.get(TCP) or packet.get(UDP)
            if (
                ip is not None
                and l4 is not None
                and l4.dport == 443
                and self.doh_resolvers.lookup(ip.dst)
            ):
                self.count("doh_blocked", packet)
                return Verdict.DROP
        # Cleartext DNS query inspection.
        message = packet.dns()
        if message is not None and message.is_query:
            for question in message.questions:
                if self.is_blocked(question.qname):
                    self.count("dns_blocked", packet)
                    return Verdict.DROP
            self.count("dns_allowed", packet)
        return Verdict.PASS

    def flow_key(self, packet: Packet):
        udp = packet.udp
        if udp is not None and 53 in (udp.sport, udp.dport):
            # Potential cleartext DNS: the verdict depends on the QNAME in
            # the payload, not on any flow key — never cache.
            return None
        ip = packet.ipv4
        l4 = packet.get(TCP) or packet.get(UDP)
        return (
            ip.dst if ip is not None else None,
            l4.dport if l4 is not None else None,
        )

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="DNS blocklist + DoH resolver filter",
            stages=[
                # DNS parsing reaches past L4 into the QNAME (~118 B budget).
                Stage("parse", StageKind.PARSER, {"header_bytes": 118}),
                Stage("qname_hash", StageKind.HASH, {"key_bits": 255 * 8 // 8}),
                Stage(
                    "domains",
                    StageKind.EXACT_TABLE,
                    {
                        "entries": self.domain_capacity,
                        "key_bits": 64,  # hashed domain digest
                        "value_bits": 8,
                    },
                ),
                Stage(
                    "resolvers",
                    StageKind.EXACT_TABLE,
                    {
                        "entries": self.resolver_capacity,
                        "key_bits": 32,
                        "value_bits": 8,
                    },
                ),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 128},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 118}),
            ],
        )

    def config(self) -> dict:
        return {
            "domain_capacity": self.domain_capacity,
            "resolver_capacity": self.resolver_capacity,
            "block_doh": self.block_doh,
        }
