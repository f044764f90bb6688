r"""FlexSFP bill of materials (§5.2 cost breakdown).

The paper derives a direct production cost of ~$300/unit (falling toward
$250 at volume) from: the MPF200T FPGA (~$200 @1k units), a commodity
10GBASE-SR optical sub-assembly (~$10), and $50–100 of remaining
components and manufacturing.  This module encodes that breakdown as data
so the Table 3 normalization and the volume-sensitivity ablation both
compute from the same source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._util import Report
from ..errors import ConfigError


@dataclass(frozen=True)
class BomItem:
    """One BOM line: a unit-cost band and a volume learning rate.

    ``learning_rate`` is the classic cost multiplier per doubling of
    volume (0.9 ⇒ 10 % cheaper each doubling), applied from the 1k-unit
    reference point.
    """

    name: str
    cost_low_usd: float
    cost_high_usd: float
    learning_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.cost_low_usd < 0 or self.cost_high_usd < self.cost_low_usd:
            raise ConfigError(f"bad cost band for {self.name!r}")
        if not 0.5 <= self.learning_rate <= 1.0:
            raise ConfigError(f"implausible learning rate for {self.name!r}")

    def at_volume(self, units: int, reference_units: int = 1_000) -> tuple[float, float]:
        """Cost band at ``units`` production volume."""
        if units <= 0:
            raise ConfigError("volume must be positive")
        doublings = max(0.0, math.log2(units / reference_units))
        factor = self.learning_rate**doublings
        return self.cost_low_usd * factor, self.cost_high_usd * factor


# The prototype's BOM (paper §5.2).
FLEXSFP_BOM: tuple[BomItem, ...] = (
    BomItem("MPF200T FPGA", 185.0, 200.0, learning_rate=0.95),
    BomItem("10GBASE-SR optics", 8.0, 10.0, learning_rate=0.92),
    BomItem("laser driver + limiting amp", 8.0, 15.0, learning_rate=0.93),
    BomItem("voltage regulators", 4.0, 8.0, learning_rate=0.95),
    BomItem("reference oscillator", 3.0, 6.0, learning_rate=0.95),
    BomItem("SPI flash (128 Mb)", 2.0, 4.0, learning_rate=0.95),
    BomItem("6-layer PCB", 8.0, 15.0, learning_rate=0.9),
    BomItem("assembly/reflow/inspection/test", 25.0, 45.0, learning_rate=0.9),
)


class FlexSfpBom:
    """Aggregate view over the FlexSFP BOM."""

    def __init__(self, items: tuple[BomItem, ...] = FLEXSFP_BOM) -> None:
        if not items:
            raise ConfigError("empty BOM")
        self.items = items

    def total_range(self, units: int = 1_000) -> tuple[float, float]:
        """Direct production cost band at the given volume."""
        low = high = 0.0
        for item in self.items:
            item_low, item_high = item.at_volume(units)
            low += item_low
            high += item_high
        return low, high

    def breakdown(self, units: int = 1_000) -> list[dict[str, object]]:
        rows = []
        total_low, total_high = self.total_range(units)
        for item in self.items:
            low, high = item.at_volume(units)
            rows.append(
                {
                    "item": item.name,
                    "low_usd": round(low, 2),
                    "high_usd": round(high, 2),
                    "share_of_high": round(high / total_high, 3),
                }
            )
        return rows

    def report(self, units: int = 1_000) -> Report:
        """:meth:`breakdown` and :meth:`total_range` as ``flexsfp paper bom`` prints them."""
        headers = ("item", "low $", "high $", "share")
        rows = [
            (r["item"], r["low_usd"], r["high_usd"], f"{r['share_of_high']:.0%}")
            for r in self.breakdown(units)
        ]
        low, high = self.total_range(units)
        extra = {"units": units, "total_low_usd": low, "total_high_usd": high}
        total = f"total at {units:,} units: ${low:.0f}-{high:.0f}"
        return Report("bom", headers, rows, extra, ((headers, rows), total))
