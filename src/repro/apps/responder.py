"""Punt-to-CPU classifier: the datapath half of the microservice node.

The PPE stays dumb and fast: it forwards everything except the low-rate
protocol traffic the control-plane services own (ARP requests, ICMP echo
to the module's own address), which it punts with ``Verdict.TO_CPU``.
Paired with :mod:`repro.core.services`, this turns an Active-Control-Plane
FlexSFP into an addressable in-cable endpoint.
"""

from __future__ import annotations

from .._util import ip_to_int
from ..core.ppe import PPEApplication, PPEContext, Verdict
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import ARP, ICMP, Packet


class CpuPunt(PPEApplication):
    """Forwarding app that punts protocol chores to the embedded CPU."""

    name = "punt"

    def __init__(
        self,
        owned_ips: list[str] | None = None,
        punt_arp: bool = True,
        punt_icmp_echo: bool = True,
    ) -> None:
        super().__init__()
        self.owned_ips = list(owned_ips or [])
        self._owned = {ip_to_int(ip) for ip in self.owned_ips}
        self.punt_arp = punt_arp
        self.punt_icmp_echo = punt_icmp_echo

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        if self.punt_arp:
            arp = packet.get(ARP)
            if arp is not None and (
                not self._owned or arp.target_ip in self._owned
            ):
                self.count("punted_arp", packet)
                return Verdict.TO_CPU
        if self.punt_icmp_echo and packet.get(ICMP) is not None:
            ip = packet.ipv4
            if ip is not None and ip.dst in self._owned:
                self.count("punted_icmp", packet)
                return Verdict.TO_CPU
        self.count("forwarded", packet)
        return Verdict.PASS

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="protocol punt classifier for CP microservices",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 42}),
                Stage(
                    "owned",
                    StageKind.EXACT_TABLE,
                    {"entries": 64, "key_bits": 32, "value_bits": 8},
                ),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 64},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 42}),
            ],
        )

    def config(self) -> dict:
        return {
            "owned_ips": self.owned_ips,
            "punt_arp": self.punt_arp,
            "punt_icmp_echo": self.punt_icmp_echo,
        }
