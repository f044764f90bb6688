"""A legacy fixed-function L2 switch with pluggable SFP cages.

This is the retrofit substrate of §2.1: "thousands of legacy aggregation
switches … lack programmability, telemetry, and in-line enforcement".  The
switch itself is a plain MAC-learning forwarder with no hooks; every port
ends in an SFP cage.  Inserting a :class:`FlexSFPModule` into a cage puts
programmable logic *between* the switch ASIC and the outside world —
without touching the switch's forwarding logic, exactly the paper's
drop-in upgrade story.
"""

from __future__ import annotations

from ..core.module import FlexSFPModule
from ..errors import ConfigError, SimulationError
from ..packet import Packet
from ..sim.engine import Simulator
from ..sim.link import Port
from ..sim.stats import Counter

SWITCH_PIPELINE_LATENCY_S = 600e-9  # typical 1U aggregation ASIC
DEFAULT_MAC_TABLE_SIZE = 16_384


class SfpCage:
    """One switch port's cage: empty (plain SFP) or holding a FlexSFP.

    ``asic_port`` faces the switch forwarding logic; :attr:`external_port`
    is what the outside cable plugs into.  With a FlexSFP inserted, the
    module's edge connector mates with the ASIC side and its optical side
    becomes the external port.
    """

    def __init__(self, sim: Simulator, name: str, rate_bps: float) -> None:
        self.sim = sim
        self.name = name
        self.asic_port = Port(sim, f"{name}.asic", rate_bps=rate_bps)
        self.module: FlexSFPModule | None = None

    @property
    def external_port(self) -> Port:
        return self.module.line_port if self.module is not None else self.asic_port

    def insert_flexsfp(self, module: FlexSFPModule) -> None:
        """Seat a FlexSFP in the cage (cage must be empty and unplugged)."""
        if self.module is not None:
            raise ConfigError(f"cage {self.name} already holds {self.module.name}")
        if self.asic_port.connected:
            raise SimulationError(
                f"unplug the external cable from {self.name} before inserting"
            )
        self.module = module
        self.asic_port.connect(module.edge_port)

    def remove_module(self) -> FlexSFPModule | None:
        """Pull the module (its links are torn down)."""
        module = self.module
        if module is not None:
            self.asic_port.disconnect()
            module.edge_port.disconnect()
            module.line_port.disconnect()
            self.module = None
        return module


class LegacySwitch:
    """Fixed-function MAC-learning switch; no programmability inside."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_ports: int = 8,
        rate_bps: float = 10e9,
        mac_table_size: int = DEFAULT_MAC_TABLE_SIZE,
    ) -> None:
        if num_ports < 2:
            raise ConfigError("a switch needs at least two ports")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.mac_table_size = mac_table_size
        self.cages = [
            SfpCage(sim, f"{name}.p{i}", rate_bps) for i in range(num_ports)
        ]
        for index, cage in enumerate(self.cages):
            cage.asic_port.attach(self._make_rx(index))
        # Per ingress port, where a flooded frame goes: every other port,
        # as (all of them but the last, the last).
        ports = [cage.asic_port for cage in self.cages]
        others = [ports[:index] + ports[index + 1 :] for index in range(num_ports)]
        self._flood_ports = [(egress[:-1], egress[-1]) for egress in others]
        self._mac_table: dict[int, int] = {}
        self.forwarded = Counter(f"{name}.forwarded")
        self.flooded = Counter(f"{name}.flooded")
        self.filtered = Counter(f"{name}.filtered")

    @property
    def num_ports(self) -> int:
        return len(self.cages)

    def external_port(self, index: int) -> Port:
        """The port an outside cable plugs into (through the cage)."""
        return self.cages[index].external_port

    def insert_flexsfp(self, index: int, module: FlexSFPModule) -> None:
        self.cages[index].insert_flexsfp(module)

    def _make_rx(self, index: int):
        def _rx(port: Port, packet: Packet, size: int, when: float) -> None:
            self._forward(index, packet, size, when)

        return _rx

    def _forward(self, ingress: int, packet: Packet, size: int, when: float) -> None:
        """Switch one frame of wire size ``size`` (no hop here changes it)
        that arrived at ``when``.

        A flooded frame leaves every port but its ingress: the last one
        gets the frame that came in, the others a copy each (N-2 copies).
        Each copy is one event at ``at`` that reserves on its egress port
        as ``Port.send`` would then.
        """
        eth = packet.eth
        if eth is None:
            self.filtered.count(size)
            return
        self._learn(eth.src, ingress)
        egress = self._mac_table.get(eth.dst)
        at = when + SWITCH_PIPELINE_LATENCY_S
        if eth.is_broadcast or eth.is_multicast or egress is None:
            self.flooded.count(size)
            schedule_at = self.sim.schedule_at
            others, last = self._flood_ports[ingress]
            for port in others:
                schedule_at(at, port._reserve_tx, packet.copy(), at, size)
            schedule_at(at, last._reserve_tx, packet, at, size)
            return
        if egress == ingress:
            self.filtered.count(size)
            return
        self.forwarded.count(size)
        port = self.cages[egress].asic_port
        self.sim.schedule_at(at, port._reserve_tx, packet, at, size)

    def _learn(self, mac: int, port_index: int) -> None:
        if mac in self._mac_table or len(self._mac_table) < self.mac_table_size:
            self._mac_table[mac] = port_index

    def mac_table(self) -> dict[int, int]:
        return dict(self._mac_table)

    def metric_values(self) -> dict[str, object]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        values: dict[str, object] = {}
        for group, counter in (
            ("forwarded", self.forwarded),
            ("flooded", self.flooded),
            ("filtered", self.filtered),
        ):
            for key, value in counter.metric_values().items():
                values[f"{group}.{key}"] = value
        values["mac_entries"] = len(self._mac_table)
        values["flexsfp_ports"] = sum(
            1 for cage in self.cages if cage.module is not None
        )
        return values

    def register_metrics(self, registry) -> None:
        """Publish the switch and every seated module into a registry."""
        registry.register(self.name, self)
        for cage in self.cages:
            if cage.module is not None:
                cage.module.register_metrics(registry)
