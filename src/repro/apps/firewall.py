"""Per-port firewalling: 5-tuple ACL at the optical edge (§3).

Rules are ternary matches over the 104-bit 5-tuple key
``src(32) | dst(32) | proto(8) | sport(16) | dport(16)`` with priorities,
compiled into the PPE's TCAM-emulation stage.  The default action applies
when no rule matches — the classic "default deny at the edge" deployment
drops unknown traffic before it ever reaches the switch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import ip_to_int
from ..core.ppe import PPEApplication, PPEContext, Verdict
from ..core.tables import TernaryTable
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet

KEY_BITS = 104


def five_tuple_key(src: int, dst: int, proto: int, sport: int, dport: int) -> int:
    """Pack a 5-tuple into the 104-bit ACL key."""
    return (src << 72) | (dst << 40) | (proto << 32) | (sport << 16) | dport


@dataclass(frozen=True)
class AclRule:
    """One ACL rule: masked 5-tuple plus action and priority.

    ``None`` fields are wildcards.  ``src``/``dst`` accept ``"a.b.c.d"`` or
    ``"a.b.c.d/len"`` prefixes.
    """

    action: str  # "permit" | "deny"
    src: str | None = None
    dst: str | None = None
    proto: int | None = None
    sport: int | None = None
    dport: int | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("permit", "deny"):
            raise ConfigError(f"unknown ACL action {self.action!r}")

    def _ip_field(self, spec: str | None) -> tuple[int, int]:
        if spec is None:
            return 0, 0
        if "/" in spec:
            addr, length_str = spec.split("/", 1)
            length = int(length_str)
        else:
            addr, length = spec, 32
        if not 0 <= length <= 32:
            raise ConfigError(f"bad prefix length in {spec!r}")
        mask = 0 if length == 0 else ((1 << length) - 1) << (32 - length)
        return ip_to_int(addr) & mask, mask

    def key_mask(self) -> tuple[int, int]:
        """Compile the rule to a (value, mask) pair over the 104-bit key."""
        src_value, src_mask = self._ip_field(self.src)
        dst_value, dst_mask = self._ip_field(self.dst)
        value = five_tuple_key(
            src_value,
            dst_value,
            self.proto or 0,
            self.sport or 0,
            self.dport or 0,
        )
        mask = five_tuple_key(
            src_mask,
            dst_mask,
            0xFF if self.proto is not None else 0,
            0xFFFF if self.sport is not None else 0,
            0xFFFF if self.dport is not None else 0,
        )
        return value, mask


class AclFirewall(PPEApplication):
    """Stateless 5-tuple packet filter."""

    name = "firewall"

    def __init__(self, capacity: int = 256, default_action: str = "permit") -> None:
        super().__init__()
        if default_action not in ("permit", "deny"):
            raise ConfigError(f"unknown default action {default_action!r}")
        self.capacity = capacity
        self.default_action = default_action
        self.acl: TernaryTable[str] = TernaryTable("acl", capacity, key_bits=KEY_BITS)
        self.tables.register(self.acl)

    def add_rule(self, rule: AclRule) -> None:
        value, mask = rule.key_mask()
        self.acl.insert(value, mask, rule.priority, rule.action)

    def install_ruleset(self, rules: list[AclRule]) -> None:
        """Atomically replace the whole rule set."""
        compiled = [(*rule.key_mask(), rule.priority, rule.action) for rule in rules]
        self.acl.atomic_replace(compiled)

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        tuple5 = packet.five_tuple()
        if tuple5 is None or packet.ipv6 is not None:
            # Non-IPv4 traffic falls through to the default action.
            action = self.default_action
        else:
            key = five_tuple_key(*tuple5)
            matched = self.acl.lookup(key)
            action = matched if matched is not None else self.default_action
        if action == "deny":
            self.count("denied", packet)
            return Verdict.DROP
        self.count("permitted", packet)
        return Verdict.PASS

    def flow_key(self, packet: Packet):
        tuple5 = packet.five_tuple()
        if tuple5 is None or packet.ipv6 is not None:
            # All non-IPv4 traffic shares the default action: one cache slot.
            return ("non-ipv4",)
        return tuple5

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="per-port 5-tuple ACL firewall",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 54}),
                Stage(
                    "acl",
                    StageKind.TERNARY_TABLE,
                    {"entries": self.capacity, "key_bits": KEY_BITS, "value_bits": 8},
                ),
                Stage("stats", StageKind.COUNTERS, {"counters": self.capacity}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 192},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 54}),
            ],
        )

    def config(self) -> dict:
        return {"capacity": self.capacity, "default_action": self.default_action}
