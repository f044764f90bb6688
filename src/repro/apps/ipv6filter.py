"""Per-subscriber IPv6 filtering (§2.1).

"Per-subscriber policies such as IPv6 filtering, DoH blocking, or basic
rate-limiting must be enforced upstream" on legacy gear — the FlexSFP
moves them to the port.  This filter implements the common access-network
policies: block all IPv6, allow-list specific next-headers (e.g. permit
ICMPv6 NDP so the link stays functional while blocking transport), or
drop IPv6 tunneled in IPv4 (protocol 41) that would bypass an IPv4-only
policy.
"""

from __future__ import annotations

from ..core.ppe import PPEApplication, PPEContext, Verdict
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import IPProto, IPv6, Packet

IPV6_IN_IPV4_PROTO = 41  # 6in4 encapsulation
ICMPV6 = IPProto.ICMPV6

MODES = ("block-all", "allow-list", "permit-all")


class Ipv6Filter(PPEApplication):
    """Subscriber-port IPv6 policy.

    Modes:

    * ``block-all`` — no IPv6 at all (and, with ``block_6in4``, no IPv6
      smuggled inside IPv4 protocol-41 either).
    * ``allow-list`` — only the next-headers in ``allowed_next_headers``
      pass (default: ICMPv6, so neighbor discovery keeps working).
    * ``permit-all`` — monitoring only (counters, no drops).
    """

    name = "ipv6filter"

    def __init__(
        self,
        mode: str = "block-all",
        allowed_next_headers: tuple[int, ...] = (ICMPV6,),
        block_6in4: bool = True,
    ) -> None:
        super().__init__()
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; pick from {MODES}")
        self.mode = mode
        self.allowed_next_headers = tuple(allowed_next_headers)
        self.block_6in4 = block_6in4

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        ip6 = packet.ipv6
        if ip6 is not None:
            return self._apply_policy(packet, ip6)
        ip4 = packet.ipv4
        if (
            self.block_6in4
            and self.mode != "permit-all"
            and ip4 is not None
            and ip4.proto == IPV6_IN_IPV4_PROTO
        ):
            self.count("blocked_6in4", packet)
            return Verdict.DROP
        return Verdict.PASS

    def _apply_policy(self, packet: Packet, ip6: IPv6) -> Verdict:
        self.count("ipv6_seen", packet)
        if self.mode == "permit-all":
            return Verdict.PASS
        if self.mode == "block-all":
            self.count("blocked", packet)
            return Verdict.DROP
        if ip6.next_header in self.allowed_next_headers:
            self.count("allowed", packet)
            return Verdict.PASS
        self.count("blocked", packet)
        return Verdict.DROP

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="per-subscriber IPv6 policy filter",
            stages=[
                # Ethernet + IPv6 fixed header (+ outer IPv4 for 6in4).
                Stage("parse", StageKind.PARSER, {"header_bytes": 74}),
                Stage(
                    "policy",
                    StageKind.EXACT_TABLE,
                    {"entries": 64, "key_bits": 8, "value_bits": 8},
                ),
                Stage("stats", StageKind.COUNTERS, {"counters": 8}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 64},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 74}),
            ],
        )

    def config(self) -> dict:
        return {
            "mode": self.mode,
            "allowed_next_headers": list(self.allowed_next_headers),
            "block_6in4": self.block_6in4,
        }
