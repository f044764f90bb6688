"""Tunnel gateway: GRE / VXLAN / IP-in-IP encapsulation at the edge (§3).

"Programmable SFPs can insert tunneling headers for GRE, VXLAN, or
IP-in-IP without involving the host."  The gateway maps inner destination
prefixes to tunnel endpoints via an LPM table; edge→line traffic matching
a route is encapsulated, line→edge traffic addressed to this endpoint is
decapsulated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import ip_to_int
from ..core.ppe import Direction, PPEApplication, PPEContext, Verdict
from ..core.tables import LPMTable
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import (
    GRE,
    IPProto,
    IPv4,
    Packet,
    UDP,
    VXLAN,
    gre_encap,
    vxlan_encap,
)

SUPPORTED_KINDS = ("gre", "vxlan", "ipip")


@dataclass(frozen=True)
class TunnelRoute:
    """Where matching traffic should be tunneled."""

    kind: str  # gre | vxlan | ipip
    remote_ip: str
    key: int | None = None  # GRE key or VXLAN VNI

    def __post_init__(self) -> None:
        if self.kind not in SUPPORTED_KINDS:
            raise ConfigError(f"unknown tunnel kind {self.kind!r}")


class TunnelGateway(PPEApplication):
    """Prefix-routed encap/decap gateway."""

    name = "tunnel"

    def __init__(self, local_ip: str = "192.0.2.1", capacity: int = 1024) -> None:
        super().__init__()
        self.local_ip = local_ip
        self._local = ip_to_int(local_ip)
        self.capacity = capacity
        self.routes: LPMTable[TunnelRoute] = LPMTable(
            "tunnel_routes", capacity, key_bits=32
        )
        self.tables.register(self.routes)

    def add_route(self, prefix: str, prefix_len: int, route: TunnelRoute) -> None:
        self.routes.insert(ip_to_int(prefix), prefix_len, route)

    # ------------------------------------------------------------------
    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        if ctx.direction is Direction.EDGE_TO_LINE:
            return self._maybe_encap(packet)
        return self._maybe_decap(packet)

    def _maybe_encap(self, packet: Packet) -> Verdict:
        ip = packet.ipv4
        if ip is None:
            return Verdict.PASS
        route = self.routes.lookup(ip.dst)
        if route is None:
            self.count("no_route", packet)
            return Verdict.PASS
        if route.kind == "gre":
            gre_encap(packet, self.local_ip, route.remote_ip, key=route.key)
            self.count("encap_gre", packet)
        elif route.kind == "vxlan":
            vxlan_encap(packet, route.key or 0, self.local_ip, route.remote_ip)
            self.count("encap_vxlan", packet)
        else:  # ipip
            self._ipip_encap(packet, route.remote_ip)
            self.count("encap_ipip", packet)
        return Verdict.PASS

    def _ipip_encap(self, packet: Packet, remote_ip: str) -> None:
        inner = packet.ipv4
        assert inner is not None  # caller checked
        outer = IPv4(self.local_ip, remote_ip, proto=IPProto.IPIP)
        packet.insert_before(inner, outer)

    def _maybe_decap(self, packet: Packet) -> Verdict:
        outer = packet.ipv4
        if outer is None or outer.dst != self._local:
            return Verdict.PASS
        if outer.proto == IPProto.GRE:
            gre = packet.get(GRE)
            if gre is not None:
                packet.remove(outer)
                packet.remove(gre)
                self.count("decap_gre", packet)
                return Verdict.PASS
        if outer.proto == IPProto.IPIP:
            packet.remove(outer)
            self.count("decap_ipip", packet)
            return Verdict.PASS
        if outer.proto == IPProto.UDP:
            vxlan = packet.get(VXLAN)
            if vxlan is not None:
                udp = packet.get(UDP)
                eth_outer = packet.eth
                for header in (eth_outer, outer, udp, vxlan):
                    if header is not None:
                        packet.remove(header)
                self.count("decap_vxlan", packet)
                return Verdict.PASS
        return Verdict.PASS

    # ------------------------------------------------------------------
    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="GRE/VXLAN/IPinIP tunnel gateway",
            stages=[
                # Parses up to outer eth+ip+udp+vxlan+inner eth+ip.
                Stage("parse", StageKind.PARSER, {"header_bytes": 90}),
                Stage(
                    "routes",
                    StageKind.LPM_TABLE,
                    {"entries": self.capacity, "key_bits": 32, "value_bits": 72},
                ),
                # Encap writes a full outer header stack (~50 B worst case).
                Stage("encap", StageKind.ACTION, {"rewrite_bits": 50 * 8}),
                Stage("csum", StageKind.CHECKSUM, {}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1568, "metadata_bits": 192},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 90}),
            ],
        )

    def config(self) -> dict:
        return {"local_ip": self.local_ip, "capacity": self.capacity}
