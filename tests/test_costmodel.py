"""Cost model: BOM, ideal scaling, the FlexSFP row and the Table 3 rows' shape.

The other Table 3 figures are checked in ``tests/test_paper_claims.py``."""

import pytest

from repro.costmodel import (
    FlexSfpBom,
    Solution,
    flexsfp_solution,
    per_10g,
    per_10g_band,
    slices,
    table3_rows,
)
from repro.errors import ConfigError


class TestScaling:
    def test_slices(self):
        assert slices(50) == 5.0

    def test_per_10g(self):
        assert per_10g(1500, 50) == 300.0

    def test_band(self):
        assert per_10g_band(1500, 2000, 50) == (300.0, 400.0)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            slices(0)
        with pytest.raises(ConfigError):
            per_10g_band(10, 5, 50)


class TestBom:
    def test_total_in_paper_band(self):
        low, high = FlexSfpBom().total_range()
        # Paper: "around $300 per unit, toward $250 as volume increases".
        assert 230 <= low <= 260
        assert 290 <= high <= 310

    def test_volume_reduces_cost(self):
        bom = FlexSfpBom()
        low_1k, high_1k = bom.total_range(1_000)
        low_100k, high_100k = bom.total_range(100_000)
        assert high_100k < high_1k and low_100k < low_1k
        assert low_100k < 250  # the paper's volume trajectory

    def test_breakdown_shares_sum_to_one(self):
        rows = FlexSfpBom().breakdown()
        assert sum(row["share_of_high"] for row in rows) == pytest.approx(1.0, abs=0.02)


class TestTable3:
    def test_flexsfp_row_derived(self):
        row = flexsfp_solution().row()
        low, high = row["usd_per_10g"]
        assert 240 <= low <= 260 and 290 <= high <= 310
        assert row["w_per_10g"] == pytest.approx(1.52, abs=0.05)

    def test_rows_order(self):
        names = [row["solution"] for row in table3_rows()]
        assert names == [
            "DPU (BF-2)",
            "Many-core (Ag./DSC)",
            "FPGA (U25/U50)",
            "FlexSFP",
        ]

    def test_flexsfp_lowest_power_per_10g(self):
        rows = table3_rows()
        flexsfp = rows[-1]["w_per_10g"]
        assert all(row["w_per_10g"] > flexsfp for row in rows[:-1])


class TestHeadlineClaims:
    """The headline figures are claims rows; a solution behind them is
    refused when its cost band is inverted."""

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigError):
            Solution("bad", 100, 50, 1, 10, 10)
