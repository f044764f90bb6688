"""The power-measurement testbed (§5, "Power consumption").

The paper measured a Thunderbolt-attached 10G NIC (QNAP QNA-T310G1S) with
a current probe: 3.800 W bare, 4.693 W with a standard SFP+ under
line-rate RX+TX stress, and 5.320 W with the FlexSFP — i.e. ~0.9 W for the
plain optics and ~1.5 W total for the FlexSFP (+0.63 W of FPGA).

We replace the probe with an activity-based power model:

* Optics: static bias (laser, CDR) plus a dynamic term scaling with link
  activity.
* FPGA: static leakage + SerDes bias + dynamic power proportional to
  (switched LUTs × clock) and (active SRAM blocks × clock), the standard
  first-order CMOS model.  Constants are calibrated so the deployed NAT
  design at 156.25 MHz under full load reproduces the published readings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import Report, clamp
from ..errors import ConfigError
from ..fpga.resources import ResourceVector

# Calibrated constants (see module docstring).
NIC_BASELINE_W = 3.800

OPTICS_STATIC_W = 0.650
OPTICS_DYNAMIC_W = 0.243  # at full line-rate RX+TX activity

FPGA_STATIC_W = 0.200
SERDES_W_PER_LANE = 0.090
LUT_DYNAMIC_W_PER_HZ = 4.5e-14  # per utilized 4LUT per clock Hz
SRAM_DYNAMIC_W_PER_HZ = 3.5e-13  # per active SRAM block per clock Hz
IDLE_ACTIVITY = 0.30  # toggle floor when no traffic flows

# Published reference points the model reproduces.
PLAIN_SFP_TOTAL_W = OPTICS_STATIC_W + OPTICS_DYNAMIC_W  # 0.893
FLEXSFP_TOTAL_W = 1.52  # ~1.5 W envelope claim


@dataclass(frozen=True)
class PowerSample:
    """One testbed reading."""

    label: str
    watts: float


def optics_power_w(activity: float) -> float:
    """Standard SFP+ optical sub-assembly power at ``activity`` ∈ [0, 1]."""
    if not 0 <= activity <= 1:
        raise ConfigError("activity must be in [0, 1]")
    return OPTICS_STATIC_W + OPTICS_DYNAMIC_W * activity


def fpga_power_w(
    used: ResourceVector,
    clock_hz: float,
    activity: float = 1.0,
    serdes_lanes: int = 2,
) -> float:
    """First-order FPGA power for a deployed design."""
    if clock_hz <= 0:
        raise ConfigError("clock must be positive")
    toggle = IDLE_ACTIVITY + (1.0 - IDLE_ACTIVITY) * clamp(activity, 0.0, 1.0)
    lut_dyn = LUT_DYNAMIC_W_PER_HZ * used.lut4 * clock_hz * toggle
    sram_blocks = used.usram + used.lsram
    sram_dyn = SRAM_DYNAMIC_W_PER_HZ * sram_blocks * clock_hz * toggle
    return FPGA_STATIC_W + SERDES_W_PER_LANE * serdes_lanes + lut_dyn + sram_dyn


def flexsfp_power_w(
    used: ResourceVector,
    clock_hz: float,
    activity: float = 1.0,
) -> float:
    """Whole-module power: optics plus the FPGA."""
    return optics_power_w(activity) + fpga_power_w(used, clock_hz, activity)


class PowerTestbed:
    """The §5 measurement rig: a Thunderbolt NIC plus one SFP cage.

    ``measure_*`` methods return total wall power, replicating the paper's
    three readings; :meth:`paper_series` produces the whole experiment.
    """

    def __init__(self, nic_baseline_w: float = NIC_BASELINE_W) -> None:
        if nic_baseline_w <= 0:
            raise ConfigError("NIC baseline power must be positive")
        self.nic_baseline_w = nic_baseline_w

    def measure_bare(self) -> PowerSample:
        """No module inserted."""
        return PowerSample("NIC (no SFP)", self.nic_baseline_w)

    def measure_plain_sfp(self, activity: float = 1.0) -> PowerSample:
        """Standard SFP+ under the given traffic activity."""
        return PowerSample(
            "NIC + SFP", self.nic_baseline_w + optics_power_w(activity)
        )

    def measure_flexsfp(
        self,
        used: ResourceVector,
        clock_hz: float,
        activity: float = 1.0,
    ) -> PowerSample:
        """FlexSFP running a deployed design under traffic."""
        return PowerSample(
            "NIC + FlexSFP",
            self.nic_baseline_w + flexsfp_power_w(used, clock_hz, activity),
        )

    def paper_series(
        self, used: ResourceVector, clock_hz: float
    ) -> list[PowerSample]:
        """The three §5 readings at line-rate stress."""
        return [
            self.measure_bare(),
            self.measure_plain_sfp(activity=1.0),
            self.measure_flexsfp(used, clock_hz, activity=1.0),
        ]

    def paper_report(self, used: ResourceVector, clock_hz: float) -> Report:
        """:meth:`paper_series` as ``flexsfp paper power`` prints it."""
        rows = [(s.label, f"{s.watts:.3f}") for s in self.paper_series(used, clock_hz)]
        return Report("power", ("configuration", "watts"), rows)
