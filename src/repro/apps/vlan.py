"""VLAN tagging and QinQ segmentation (§3, Packet Transformation).

Models the access-port behaviour a FlexSFP adds to a legacy switch: tag
untagged subscriber traffic heading into the network (edge→line), strip
the tag on the way back, and optionally stack an 802.1ad service tag
(QinQ) for multi-tenant L2 segmentation.
"""

from __future__ import annotations

from ..core.ppe import Direction, PPEApplication, PPEContext, Verdict
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet, VLAN, vlan_pop, vlan_push


class VlanTagger(PPEApplication):
    """Access-mode VLAN tagger with optional QinQ service tag.

    edge→line: pushes the customer tag (and the service tag when
    configured); line→edge: pops tags that match, drops mismatched VIDs
    (standard access-port isolation).
    """

    name = "vlan"

    def __init__(
        self,
        access_vid: int = 100,
        pcp: int = 0,
        service_vid: int | None = None,
        drop_foreign: bool = True,
    ) -> None:
        super().__init__()
        if not 1 <= access_vid <= 4094:
            raise ConfigError(f"access VID out of range: {access_vid}")
        if service_vid is not None and not 1 <= service_vid <= 4094:
            raise ConfigError(f"service VID out of range: {service_vid}")
        self.access_vid = access_vid
        self.pcp = pcp
        self.service_vid = service_vid
        self.drop_foreign = drop_foreign

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        if ctx.direction is Direction.EDGE_TO_LINE:
            return self._tag(packet)
        return self._untag(packet)

    def _tag(self, packet: Packet) -> Verdict:
        if packet.get(VLAN) is not None:
            # Already tagged at an access port: policy violation.
            self.count("already_tagged", packet)
            return Verdict.DROP if self.drop_foreign else Verdict.PASS
        vlan_push(packet, self.access_vid, pcp=self.pcp)
        if self.service_vid is not None:
            vlan_push(packet, self.service_vid, pcp=self.pcp, service=True)
        self.count("tagged", packet)
        return Verdict.PASS

    def _untag(self, packet: Packet) -> Verdict:
        expected = (
            [self.service_vid, self.access_vid]
            if self.service_vid is not None
            else [self.access_vid]
        )
        for vid in expected:
            tag = packet.get(VLAN)
            if tag is None or tag.vid != vid:
                self.count("foreign_vid", packet)
                return Verdict.DROP if self.drop_foreign else Verdict.PASS
            vlan_pop(packet)
        self.count("untagged", packet)
        return Verdict.PASS

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def flow_key(self, packet: Packet):
        if packet.eth is None:
            return None  # vlan_push would fail; leave it to the slow path
        # The verdict depends only on which VLAN tags lead the stack (at
        # most two: service + customer), so key on those VIDs; ``()``
        # is the untagged flow.
        return tuple(tag.vid for tag in packet.get_all(VLAN)[:2])

    def pipeline_spec(self) -> PipelineSpec:
        tags = 2 if self.service_vid is not None else 1
        return PipelineSpec(
            name=self.name,
            description="access-port VLAN/QinQ tagger",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 14 + 4 * tags}),
                Stage("tag", StageKind.ACTION, {"rewrite_bits": 32 * tags + 16}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1522, "metadata_bits": 128},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 14 + 4 * tags}),
            ],
        )

    def config(self) -> dict:
        return {
            "access_vid": self.access_vid,
            "pcp": self.pcp,
            "service_vid": self.service_vid,
            "drop_foreign": self.drop_foreign,
        }
