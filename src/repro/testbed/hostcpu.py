"""Host-CPU packet processing baseline (§2's "acceleration gap").

The paper's motivation: simple tasks either run on the host CPU
("reintroducing latency, jitter, and resource contention") or on a
SmartNIC ("cost and power ... for capabilities that may remain largely
unused").  This model quantifies the host side of that dilemma with
standard software-datapath arithmetic:

* Each packet costs ``per_packet_ns`` of one core (XDP-class simple
  functions run ~300–1000 ns/packet including driver overhead).
* Cores needed = offered pps × per-packet time; a task is infeasible
  when it exceeds the budgeted cores.
* Queueing latency follows M/D/1: deterministic service, Poisson
  arrivals — the jitter the paper complains about appears as the load
  approaches saturation.
* Power = active cores × per-core watts (server cores under full
  packet-processing load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class HostCpuPath:
    """A software packet path on host cores."""

    per_packet_ns: float = 600.0  # simple NAT/ACL in XDP, per packet
    cores_available: int = 8
    watts_per_core: float = 12.0  # active server core under DPDK-style load

    def __post_init__(self) -> None:
        if self.per_packet_ns <= 0 or self.cores_available <= 0:
            raise ConfigError("per-packet time and cores must be positive")
        if self.watts_per_core <= 0:
            raise ConfigError("per-core power must be positive")

    @property
    def core_pps(self) -> float:
        """Packets/second one core sustains."""
        return 1e9 / self.per_packet_ns

    def cores_needed(self, pps: float) -> float:
        """Fractional cores to keep up with ``pps`` (no headroom)."""
        if pps < 0:
            raise ConfigError("negative packet rate")
        return pps / self.core_pps

    def feasible(self, pps: float, utilization_cap: float = 0.8) -> bool:
        """Can the budgeted cores carry the load below the cap?"""
        if not 0 < utilization_cap <= 1:
            raise ConfigError("utilization cap must be in (0, 1]")
        return self.cores_needed(pps) <= self.cores_available * utilization_cap

    def power_w(self, pps: float) -> float:
        """Host power attributable to the packet path (whole cores)."""
        return math.ceil(min(self.cores_needed(pps), self.cores_available)) * (
            self.watts_per_core
        )

    def latency_s(self, pps: float, cores: int | None = None) -> float:
        """Mean M/D/1 sojourn time per packet at the offered load.

        ``cores=None`` uses just enough whole cores (capped at the
        budget); load is split evenly (RSS-style).  Saturated systems
        return ``inf`` — the paper's "resource contention" made visible.
        """
        service = self.per_packet_ns / 1e9
        if pps == 0:
            return service
        if cores is None:
            cores = min(
                self.cores_available, max(1, math.ceil(self.cores_needed(pps)))
            )
        if cores <= 0:
            raise ConfigError("need at least one core")
        rho = (pps / cores) * service
        if rho >= 1.0:
            return math.inf
        # M/D/1 mean waiting time: rho * service / (2 (1 - rho)).
        return service + rho * service / (2 * (1 - rho))
