"""The runtime crosspoint-steering stage.

Hardware model: a crosspoint crossbar between the shell MACs and the
per-tenant pipeline partitions.  Each ingress data-plane frame is
matched against the deployment's steering rules in slot order and
forwarded to the first tenant that claims it; the mandatory wildcard
catch-all on the last slot makes steering a *total* function, so every
frame lands in exactly one slot (no replication, no loss at the
steering stage).  Per-tenant steered counters are the observable the
isolation tests and the ``tenant.<name>.steered`` metric subtree read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .._util import ip_to_int
from ..packet import IPv4, UDP
from ..sim.stats import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..packet import Packet

    from .deployment import TenantSpec


class Crossbar:
    """First-match-wins steering over an ordered tenant list."""

    def __init__(self, name: str, tenants: Sequence[TenantSpec]) -> None:
        self.name = name
        # SteeringMatch.matches, compiled once: (slot, dport, prefix, shift)
        # per tenant, None where the rule leaves the field open.
        self._rows = []
        for slot, spec in enumerate(tenants):
            match, shift = spec.match, 32 - spec.match.prefix_len
            prefix = None if match.dst_ip is None else ip_to_int(match.dst_ip) >> shift
            self._rows.append((slot, match.udp_dport, prefix, shift))
        self.steered = [
            Counter(f"{name}.tenant.{spec.name}.steered") for spec in tenants
        ]

    def select(self, packet: Packet) -> int:
        """Pure classification: the slot index *packet* steers to.

        The rules read the first IPv4 header and the first UDP header of
        the stack (``packet.ipv4`` / ``packet.udp``), found in one pass.
        """
        ip = udp = None
        for header in packet.headers:
            if isinstance(header, IPv4):
                if ip is None:
                    ip = header
            elif udp is None and isinstance(header, UDP):
                udp = header
        for slot, dport, prefix, shift in self._rows:
            if dport is prefix is None:  # the wildcard claims non-IP frames too
                return slot
            if ip is None:
                continue
            if dport is not None and (udp is None or udp.dport != dport):
                continue
            if prefix is None or ip.dst >> shift == prefix:
                return slot
        # Unreachable by construction: Deployment.validate() requires the
        # last slot to carry the wildcard match.
        raise AssertionError("crossbar steering fell through the catch-all")

    def steer(self, packet: Packet, size: int) -> int:
        """Classify and count one frame; returns the slot index.

        The counter is bumped in place: the crossbar costs two calls
        per frame, this one and :meth:`select`.
        """
        index = self.select(packet)
        counter = self.steered[index]
        counter.packets += 1
        counter.bytes += size
        return index

    def steer_bulk(self, template: Packet, size: int, count: int) -> int:
        """Classify one template frame standing for *count* identical
        frames (the struct-of-arrays burst lane) and count them all."""
        index = self.select(template)
        counter = self.steered[index]
        counter.packets += count
        counter.bytes += size * count
        return index
