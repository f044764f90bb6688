"""Architecture shells: the three Figure 1 alternatives.

A shell is the fixed part of a FlexSFP design: the two line interfaces, the
embedded control plane, the arbiter, and the wiring that decides which
traffic directions traverse the PPE.

* **One-Way-Filter** (Fig. 1a): the PPE sits on one direction only
  (edge→optical by default); the reverse path is merge-and-forward.
* **Two-Way-Core** (Fig. 1b): both directions are aggregated into a single
  PPE, which must therefore process up to 2× the line rate — feasible by
  raising the PPE clock (the paper's suggested approach) or widening the
  datapath.
* **Active-Control-Plane**: Two-Way-Core plus a dedicated management
  interface, with a control plane that can originate/terminate traffic
  (the "self-contained microservice node" vision).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .._util import Report
from ..errors import ConfigError, TimingError
from ..fpga import estimator
from ..fpga.resources import ResourceVector
from ..fpga.timing import TimingSpec, required_clock_hz
from .ppe import Direction

# Standard fabric clock grid the build flow snaps to (MHz): multiples used
# by 10G Ethernet datapaths on PolarFire-class parts.
STANDARD_CLOCKS_HZ = (156.25e6, 200e6, 250e6, 312.5e6, 400e6)


def plan_operating_point(line_rate_bps: float) -> tuple[int, float]:
    """Cheapest ``(width bits, clock Hz)`` on the grid sustaining the rate.

    The §5.3 planner, the one definition the CLI and the scalability and
    form-factor benches share.  Per clock it takes the narrowest
    power-of-two bus whose worst-case frame keeps up; "cheapest" then
    minimizes raw datapath bandwidth (width × clock), breaking ties toward
    the lower clock: the prototype's choice (64 b @ 156.25 MHz rather than
    32 b @ 312.5 MHz for 10 G).  Raises :class:`TimingError` when no
    single pipeline sustains the rate.
    """
    candidates: list[tuple[float, float, int]] = []
    for clock in STANDARD_CLOCKS_HZ:
        width = 8
        while width <= 2048:
            _, sustained = TimingSpec(width, clock).worst_case_frame(line_rate_bps)
            if sustained:
                candidates.append((width * clock, clock, width))
                break
            width *= 2
    if not candidates:
        raise TimingError(
            f"no single-pipeline operating point sustains "
            f"{line_rate_bps / 1e9:.0f} Gbps"
        )
    _, clock, width = min(candidates)
    return width, clock


def operating_point_report(gbps: float) -> Report:
    """:func:`plan_operating_point` as ``flexsfp paper scale`` prints it."""
    headers = ("gbps", "width_bits", "clock_mhz", "raw_gbps")
    try:
        width, clock = plan_operating_point(gbps * 1e9)
    except TimingError as exc:
        extra = {"gbps": gbps, "feasible": False}
        return Report("scale", headers, [], extra, (str(exc),), ok=False)
    raw_gbps = width * clock / 1e9
    line = (
        f"{gbps:.0f} Gbps -> {width} b datapath @ {clock / 1e6:.2f} MHz "
        f"(raw {raw_gbps:.1f} Gbps)"
    )
    row = (gbps, width, clock / 1e6, raw_gbps)
    return Report("scale", headers, [row], {"gbps": gbps, "feasible": True}, (line,))


class ShellKind(Enum):
    ONE_WAY_FILTER = "one-way-filter"
    TWO_WAY_CORE = "two-way-core"
    ACTIVE_CORE = "active-control-plane"


class ControlPlaneClass(Enum):
    """§4.1: softcore (Mi-V class) vs SoC-based hard processor."""

    SOFTCORE = "softcore"
    SOC = "soc"


@dataclass(frozen=True)
class ShellSpec:
    """A configured shell: kind, line rate, datapath width, control plane."""

    kind: ShellKind = ShellKind.ONE_WAY_FILTER
    line_rate_bps: float = 10e9
    datapath_bits: int = 64
    control_plane: ControlPlaneClass = ControlPlaneClass.SOFTCORE
    filtered_direction: Direction = Direction.EDGE_TO_LINE

    @property
    def rate_multiplier(self) -> float:
        """PPE load relative to one line direction."""
        return 1.0 if self.kind is ShellKind.ONE_WAY_FILTER else 2.0

    @property
    def ppe_offered_rate_bps(self) -> float:
        return self.line_rate_bps * self.rate_multiplier

    def processes(self, direction: Direction) -> bool:
        """Does traffic in ``direction`` traverse the PPE?"""
        if self.kind is ShellKind.ONE_WAY_FILTER:
            return direction is self.filtered_direction
        return True

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------
    def base_components(self) -> dict[str, ResourceVector]:
        """The shell's fixed components (Table 1's non-app rows)."""
        if self.control_plane is ControlPlaneClass.SOFTCORE:
            components = {"Mi-V": estimator.miv_core()}
        else:
            components = {"SoC bridge": estimator.soc_hard_processor()}
        components["Elec. I/F"] = estimator.ethernet_interface_10g("electrical")
        components["Opt. I/F"] = estimator.ethernet_interface_10g("optical")
        if self.kind is ShellKind.ACTIVE_CORE:
            components["Mgmt I/F"] = estimator.management_interface_1g()
        if self.kind in (ShellKind.TWO_WAY_CORE, ShellKind.ACTIVE_CORE):
            # Aggregation/demux arbiter in front of the shared PPE.
            components["Arbiter"] = ResourceVector(
                lut4=int(self.datapath_bits * 9), ff=int(self.datapath_bits * 14)
            )
        return components

    def base_resources(self) -> ResourceVector:
        return ResourceVector.sum(list(self.base_components().values()))

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def required_ppe_clock_hz(self, worst_frame_bytes: int = 60) -> float:
        """Minimum PPE clock to sustain the shell's offered rate."""
        return required_clock_hz(
            self.ppe_offered_rate_bps, self.datapath_bits, worst_frame_bytes
        )

    def standard_ppe_clock_hz(self, worst_frame_bytes: int = 60) -> float:
        """Snap the required clock up to the standard fabric clock grid."""
        needed = self.required_ppe_clock_hz(worst_frame_bytes)
        for clock in STANDARD_CLOCKS_HZ:
            if clock >= needed:
                return clock
        raise ConfigError(
            f"no standard clock sustains {self.ppe_offered_rate_bps / 1e9:.1f} "
            f"Gbps on a {self.datapath_bits}-bit datapath; widen the bus"
        )

    def describe(self) -> dict[str, object]:
        return {
            "kind": self.kind.value,
            "line_rate_gbps": self.line_rate_bps / 1e9,
            "datapath_bits": self.datapath_bits,
            "control_plane": self.control_plane.value,
            "rate_multiplier": self.rate_multiplier,
            "required_ppe_clock_mhz": self.required_ppe_clock_hz() / 1e6,
        }


# The paper's prototype shell: One-Way-Filter at 10G, 64-bit datapath.
PROTOTYPE_SHELL = ShellSpec()
