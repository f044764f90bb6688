"""Host endpoints: simple traffic sources/sinks with one NIC port."""

from __future__ import annotations

from typing import Callable

from .._util import mac_to_int
from ..packet import Packet
from ..sim.engine import Simulator
from ..sim.link import Port
from ..sim.stats import RateMeter


class Host:
    """A host with a single NIC port.

    Received packets are recorded (bounded by ``keep_last``) and measured
    by a :class:`RateMeter`; an optional handler can implement protocol
    behaviour (echo servers, collectors, …).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: str | int = 0,
        ip: str = "0.0.0.0",
        rate_bps: float = 10e9,
        keep_last: int = 4096,
    ) -> None:
        self.sim = sim
        self.name = name
        self.mac = mac_to_int(mac) if mac else 0
        self.ip = ip
        self.keep_last = keep_last
        self.port = Port(sim, f"{name}.nic", rate_bps=rate_bps)
        self.port.attach(self._on_rx)
        self.received: list[Packet] = []
        self.rx_meter = RateMeter(f"{name}.rx")
        self.handler: Callable[[Packet], None] | None = None

    def _on_rx(self, port: Port, packet: Packet, size: int, when: float) -> None:
        self.rx_meter.observe(when, size)
        self.received.append(packet)
        if len(self.received) > self.keep_last:
            del self.received[: -self.keep_last]
        if self.handler is not None:
            self.handler(packet)

    def send(self, packet: Packet) -> bool:
        """Transmit one packet out the NIC."""
        return self.port.send(packet)

    @property
    def rx_packets(self) -> int:
        return self.rx_meter.total_packets

    def clear(self) -> None:
        self.received.clear()

    def metric_values(self) -> dict[str, float]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        values: dict[str, float] = {}
        for key, value in self.rx_meter.metric_values().items():
            values[f"rx.{key}"] = value
        for key, value in self.port.metric_values().items():
            values[f"nic.{key}"] = value
        return values
