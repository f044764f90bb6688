"""Comparable acceleration solutions and the Table 3 normalization.

Each :class:`Solution` carries the raw cost/power figures the paper quotes
from vendor/reseller listings, plus the aggregate capacities used for the
ideal-scaling normalization.  The paper's Table 3 classes mix SKUs (e.g.
"Many-core (Ag./DSC)" takes its cost band from Agilio-class pricing and
its power point from the DSC-25), so cost and power may normalize against
different capacities; both are recorded explicitly.

The FlexSFP row is *derived*, not quoted: its cost band comes from the BOM
model and its power from the testbed power model, keeping the whole table
reproducible from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import Report
from ..errors import ConfigError
from .bom import FlexSfpBom
from .scaling import per_10g, per_10g_band


@dataclass(frozen=True)
class Solution:
    """One Table 3 row."""

    name: str
    cost_low_usd: float
    cost_high_usd: float
    power_w: float
    cost_capacity_gbps: float  # capacity used to normalize cost
    power_capacity_gbps: float  # capacity used to normalize power
    note: str = ""

    def __post_init__(self) -> None:
        if self.cost_high_usd < self.cost_low_usd:
            raise ConfigError(f"inverted cost band for {self.name!r}")

    def cost_per_10g(self) -> tuple[float, float]:
        return per_10g_band(
            self.cost_low_usd, self.cost_high_usd, self.cost_capacity_gbps
        )

    def power_per_10g(self) -> float:
        return per_10g(self.power_w, self.power_capacity_gbps)

    def row(self) -> dict[str, object]:
        cost_lo, cost_hi = self.cost_per_10g()
        return {
            "solution": self.name,
            "raw_usd": (self.cost_low_usd, self.cost_high_usd),
            "raw_w": self.power_w,
            "usd_per_10g": (round(cost_lo, 1), round(cost_hi, 1)),
            "w_per_10g": round(self.power_per_10g(), 2),
        }


# Raw figures as quoted in §5.2 / Table 3 (reseller pricing, board power).
DPU_BF2 = Solution(
    name="DPU (BF-2)",
    cost_low_usd=1_500.0,
    cost_high_usd=2_000.0,
    power_w=75.0,
    cost_capacity_gbps=50.0,  # 2×25G BlueField-2 SKU
    power_capacity_gbps=50.0,
    note="NVIDIA BlueField-2, 2x25G SKU",
)

MANY_CORE = Solution(
    name="Many-core (Ag./DSC)",
    cost_low_usd=800.0,
    cost_high_usd=1_200.0,
    power_w=25.0,
    cost_capacity_gbps=80.0,  # Agilio CX 2x40G pricing basis
    power_capacity_gbps=50.0,  # Pensando DSC-25 power basis
    note="Agilio-class cost band; DSC-25 power point",
)

FPGA_NIC = Solution(
    name="FPGA (U25/U50)",
    cost_low_usd=2_000.0,
    cost_high_usd=2_600.0,
    power_w=75.0,
    cost_capacity_gbps=75.0,  # blended U25 (50G) / U50 (100G)
    power_capacity_gbps=100.0,  # U50 at 100G (U25: 45 W / 50G ≈ 9 W)
    note="paper quotes >2k$, 45-75 W, 7-10 W/10G",
)


def flexsfp_solution(
    units: int = 1_000, power_w: float | None = None
) -> Solution:
    """Derive the FlexSFP row from the BOM and power models."""
    low, high = FlexSfpBom().total_range(units)
    if power_w is None:
        # Only the default reads the power testbed; a caller's own figure does not.
        from ..testbed.power import FLEXSFP_TOTAL_W

        power_w = FLEXSFP_TOTAL_W
    return Solution(
        name="FlexSFP",
        cost_low_usd=low,
        cost_high_usd=high,
        power_w=power_w,
        cost_capacity_gbps=10.0,
        power_capacity_gbps=10.0,
        note="derived from BOM + power model",
    )


def table3_rows(units: int = 1_000) -> list[dict[str, object]]:
    """All Table 3 rows, comparators quoted + FlexSFP derived."""
    solutions = [DPU_BF2, MANY_CORE, FPGA_NIC, flexsfp_solution(units)]
    return [solution.row() for solution in solutions]


def table3_report(units: int = 1_000) -> Report:
    """Table 3 as ``flexsfp paper table3`` prints it (bands as ``low-high``)."""
    rows = [
        (
            r["solution"],
            "{:.0f}-{:.0f}".format(*r["raw_usd"]),
            r["raw_w"],
            "{:.0f}-{:.0f}".format(*r["usd_per_10g"]),
            r["w_per_10g"],
        )
        for r in table3_rows(units)
    ]
    headers = ("solution", "raw $", "raw W", "$/10G", "W/10G")
    return Report("table3", headers, rows, {"units": units})


def capex_saving_vs(other: Solution, units: int = 1_000) -> float:
    """Fractional per-port CAPEX saving of FlexSFP vs ``other`` (midpoints).

    For "lightweight edge workloads" a port needs one unit of *something*;
    the paper's "roughly two-thirds CAPEX saving" compares raw unit costs
    (FlexSFP ~$275 vs a many-core SmartNIC ~$1 000), while per-10G the
    SmartNICs amortize better — that asymmetry is the whole Table 3 story.
    """
    flex = flexsfp_solution(units)
    flex_mid = (flex.cost_low_usd + flex.cost_high_usd) / 2
    other_mid = (other.cost_low_usd + other.cost_high_usd) / 2
    return 1.0 - flex_mid / other_mid if other_mid else 0.0


def power_reduction_vs(other: Solution, units: int = 1_000) -> float:
    """Per-10G power reduction factor of FlexSFP vs ``other``.

    The paper claims an order of magnitude against the DPU class
    (15 W/10G → 1.5 W/10G).
    """
    flex = flexsfp_solution(units)
    flex_w = flex.power_per_10g()
    return other.power_per_10g() / flex_w if flex_w else 0.0
