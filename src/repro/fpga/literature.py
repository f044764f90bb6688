"""Published FPGA network-function designs used in the paper's Table 2.

Each entry records the design's native resource report (LUT6s on Xilinx,
ALMs on Intel) and its BRAM footprint in kbit; :func:`normalized_le`
converts logic to 4-input logic-element equivalents with the paper's
factors (1 LUT6 ≈ 1.6 LE, 1 ALM ≈ 2 LE) so designs can be compared against
the FlexSFP's MPF200T budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import Report
from ..errors import ConfigError
from .resources import ALM_TO_LE, LUT6_TO_LE, FPGADevice, MPF200T


@dataclass(frozen=True)
class LiteratureDesign:
    """One published design: native logic units plus BRAM kbit."""

    name: str
    logic_units: int
    logic_unit_kind: str  # "lut6" | "alm" | "le"
    bram_kbit: float
    note: str = ""

    def normalized_le(self) -> float:
        """Logic in 4-input LE equivalents (Table 2 normalization)."""
        if self.logic_unit_kind == "lut6":
            return self.logic_units * LUT6_TO_LE
        if self.logic_unit_kind == "alm":
            return self.logic_units * ALM_TO_LE
        if self.logic_unit_kind == "le":
            return float(self.logic_units)
        raise ConfigError(f"unknown logic unit kind {self.logic_unit_kind!r}")

    def fits_device(self, device: FPGADevice = MPF200T) -> bool:
        """Order-of-magnitude fit check against a device's LE and BRAM."""
        return (
            self.normalized_le() <= device.logic_elements
            and self.bram_kbit <= device.sram_kbit
        )

    def fit_class(self, device: FPGADevice = MPF200T, margin: float = 1.25) -> str:
        """Order-of-magnitude verdict: ``fits`` / ``marginal`` / ``exceeds``.

        The paper argues at order-of-magnitude granularity (synthesis
        strategy and vendor differences swamp small deltas), so designs
        within ``margin`` of the budget are classed *marginal* rather than
        rejected outright.
        """
        worst = max(
            self.normalized_le() / device.logic_elements,
            self.bram_kbit / device.sram_kbit,
        )
        if worst <= 1.0:
            return "fits"
        if worst <= margin:
            return "marginal"
        return "exceeds"

    def fit_report(self, device: FPGADevice = MPF200T) -> dict[str, object]:
        le = self.normalized_le()
        return {
            "name": self.name,
            "logic_le": le,
            "bram_kbit": self.bram_kbit,
            "logic_ratio": le / device.logic_elements,
            "bram_ratio": self.bram_kbit / device.sram_kbit,
            "fits": self.fits_device(device),
            "fit_class": self.fit_class(device),
        }


# Table 2 rows (native numbers as published; see paper for sources).
FLOWBLAZE_STAGE = LiteratureDesign(
    name="FlowBlaze (1 stage)",
    logic_units=71_712,
    logic_unit_kind="lut6",
    bram_kbit=14_148,
    note="stateful match-action stage, NetFPGA SUME",
)

PIGASUS = LiteratureDesign(
    name="Pigasus",
    logic_units=207_960,
    logic_unit_kind="alm",
    bram_kbit=64_400,
    note="100G IDS/IPS, Intel Stratix 10 MX",
)

HXDP_CORE = LiteratureDesign(
    name="hXDP (1 core)",
    logic_units=68_689,
    logic_unit_kind="lut6",
    bram_kbit=1_799,
    note="eBPF/XDP soft processor, Alveo U50",
)

CLICKNP_IPSEC_GW = LiteratureDesign(
    name="ClickNP IPSec GW",
    logic_units=242_592,
    logic_unit_kind="lut6",
    bram_kbit=39_161,
    note="IPSec gateway, Catapult shell",
)

FLEXSFP_BUDGET = LiteratureDesign(
    name="FlexSFP (MPF200T)",
    logic_units=192_000,
    logic_unit_kind="le",
    bram_kbit=13_300,
    note="whole-device budget, not a single function",
)

TABLE2_DESIGNS = [FLOWBLAZE_STAGE, PIGASUS, HXDP_CORE, CLICKNP_IPSEC_GW]


def table2_rows(device: FPGADevice = MPF200T) -> list[dict[str, object]]:
    """The Table 2 comparison: every design's normalized fit report."""
    rows = [design.fit_report(device) for design in TABLE2_DESIGNS]
    rows.append(
        {
            "name": FLEXSFP_BUDGET.name,
            "logic_le": float(device.logic_elements),
            "bram_kbit": device.sram_kbit,
            "logic_ratio": 1.0,
            "bram_ratio": 1.0,
            "fits": True,
            "fit_class": "fits",
        }
    )
    return rows


def table2_report(device: FPGADevice = MPF200T) -> Report:
    """Table 2 as ``flexsfp paper table2`` prints it."""
    rows = [
        (r["name"], f"{r['logic_le']:,.0f}", f"{r['bram_kbit']:,.0f}", r["fit_class"])
        for r in table2_rows(device)
    ]
    return Report("table2", ("design", "logic (LE)", "BRAM (kbit)", "verdict"), rows)
