"""Synthetic flow-level workloads.

Access-network traffic (the §2.1 telecom scenario) is heavy-tailed: most
flows are mice, a few elephants carry most bytes.  :class:`FlowSetGenerator`
produces deterministic, seeded flow descriptors with Pareto sizes and
Zipf-ish endpoint popularity, and can expand them into packet sequences
for the traffic sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .._util import int_to_ip
from ..errors import ConfigError
from ..packet import IPProto, Packet, make_tcp, make_udp


@dataclass(frozen=True)
class FlowSpec:
    """One synthetic flow: endpoints, protocol, size, start time."""

    src_ip: str
    dst_ip: str
    proto: int
    sport: int
    dport: int
    total_bytes: int
    start_s: float


class FlowSetGenerator:
    """Seeded generator of heavy-tailed flow sets."""

    def __init__(
        self,
        num_subscribers: int = 64,
        subscriber_base: str = "100.64.0.0",
        remote_base: str = "203.0.113.0",
        num_remotes: int = 16,
        mean_flow_bytes: int = 20_000,
        pareto_alpha: float = 1.3,
        udp_fraction: float = 0.3,
        seed: int = 42,
    ) -> None:
        if num_subscribers <= 0 or num_remotes <= 0:
            raise ConfigError("need at least one subscriber and one remote")
        if not 0 <= udp_fraction <= 1:
            raise ConfigError("udp_fraction must be in [0, 1]")
        if pareto_alpha <= 1.0:
            raise ConfigError("pareto_alpha must exceed 1 for a finite mean")
        self.num_subscribers = num_subscribers
        self.num_remotes = num_remotes
        self.mean_flow_bytes = mean_flow_bytes
        self.pareto_alpha = pareto_alpha
        self.udp_fraction = udp_fraction
        self._rng = random.Random(seed)
        self._sub_base = self._ip_int(subscriber_base)
        self._remote_base = self._ip_int(remote_base)

    @staticmethod
    def _ip_int(ip: str) -> int:
        from .._util import ip_to_int

        return ip_to_int(ip)

    def subscriber_ip(self, index: int) -> str:
        return int_to_ip(self._sub_base + index % self.num_subscribers)

    def remote_ip(self, index: int) -> str:
        return int_to_ip(self._remote_base + index % self.num_remotes)

    def _flow_bytes(self) -> int:
        # Pareto with xm chosen so the mean matches mean_flow_bytes.
        alpha = self.pareto_alpha
        xm = self.mean_flow_bytes * (alpha - 1) / alpha
        size = xm / (1.0 - self._rng.random()) ** (1.0 / alpha)
        return max(64, int(size))

    def _zipf_index(self, n: int) -> int:
        # Simple rank-biased pick: rank r with weight 1/(r+1).
        weights = [1.0 / (r + 1) for r in range(n)]
        return self._rng.choices(range(n), weights=weights, k=1)[0]

    def generate(self, num_flows: int, duration_s: float = 1.0) -> list[FlowSpec]:
        """Produce ``num_flows`` flow descriptors over ``duration_s``."""
        flows = []
        for _ in range(num_flows):
            udp = self._rng.random() < self.udp_fraction
            flows.append(
                FlowSpec(
                    src_ip=self.subscriber_ip(self._rng.randrange(self.num_subscribers)),
                    dst_ip=self.remote_ip(self._zipf_index(self.num_remotes)),
                    proto=IPProto.UDP if udp else IPProto.TCP,
                    sport=self._rng.randrange(32_768, 61_000),
                    dport=self._rng.choice((53, 80, 123, 443, 8080))
                    if udp
                    else self._rng.choice((80, 443, 22, 8443)),
                    total_bytes=self._flow_bytes(),
                    start_s=self._rng.random() * duration_s,
                )
            )
        flows.sort(key=lambda flow: flow.start_s)
        return flows


def flow_packets(flow: FlowSpec, mtu_payload: int = 1400) -> list[Packet]:
    """Expand a flow into its packet sequence (full MTU then a tail)."""
    if mtu_payload <= 0:
        raise ConfigError("mtu_payload must be positive")
    packets: list[Packet] = []
    remaining = flow.total_bytes
    seq = 0
    while remaining > 0:
        size = min(mtu_payload, remaining)
        if flow.proto == IPProto.UDP:
            packet = make_udp(
                src_ip=flow.src_ip,
                dst_ip=flow.dst_ip,
                sport=flow.sport,
                dport=flow.dport,
                payload=bytes(size),
            )
        else:
            packet = make_tcp(
                src_ip=flow.src_ip,
                dst_ip=flow.dst_ip,
                sport=flow.sport,
                dport=flow.dport,
                seq=seq,
                payload=bytes(size),
            )
        packets.append(packet)
        seq += size
        remaining -= size
    return packets
