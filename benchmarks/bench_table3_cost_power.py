"""Table 3 — raw and ideal-scaled cost/power per 10 Gb/s slice.

Comparators (DPU, many-core SmartNIC, FPGA NIC) carry the paper's quoted
reseller figures; the FlexSFP row is *derived* from the BOM model and the
power testbed model, then everything is normalized with the ideal-scaling
rule of Sadok et al. [39].
"""

import pytest

from common import report
from repro.costmodel import (
    DPU_BF2,
    FlexSfpBom,
    MANY_CORE,
    capex_saving_vs,
    power_reduction_vs,
    table3_report,
    table3_rows,
)

# Paper Table 3 per-10G bands.
PAPER_BANDS = {
    "DPU (BF-2)": ((300, 400), 15.0),
    "Many-core (Ag./DSC)": ((100, 150), 5.0),
    "FPGA (U25/U50)": ((200, 400), (7.0, 10.0)),
    "FlexSFP": ((250, 300), 1.5),
}


def compute():
    return table3_rows(units=1_000)


def test_table3_cost_power(benchmark):
    rows = benchmark.pedantic(compute, rounds=3, iterations=1)
    # Display rows are the library's (what `flexsfp paper table3|bom` print).
    table3 = table3_report(units=1_000)
    report("Table 3: raw and ideal-scaled cost/power (per 10 Gb/s)", table3.headers, table3.rows)
    bom = FlexSfpBom().report()
    report("FlexSFP BOM breakdown (1k units)", bom.headers, bom.rows)
    by_name = {row["solution"]: row for row in rows}
    # Shape: every computed band sits inside (or equals) the paper band
    # with 15% tolerance on the edges.
    for name, (cost_band, power) in PAPER_BANDS.items():
        got = by_name[name]
        lo, hi = got["usd_per_10g"]
        assert lo >= cost_band[0] * 0.85 and hi <= cost_band[1] * 1.15, name
        if isinstance(power, tuple):
            assert power[0] * 0.85 <= got["w_per_10g"] <= power[1] * 1.15, name
        else:
            assert got["w_per_10g"] == pytest.approx(power, rel=0.15), name
    # Headline claims: ~2/3 CAPEX saving, ~10x power reduction.
    assert capex_saving_vs(MANY_CORE) == pytest.approx(2 / 3, abs=0.1)
    assert power_reduction_vs(DPU_BF2) == pytest.approx(10.0, rel=0.15)
    # And the FlexSFP is the only solution in the <2 W/10G class.
    flexsfp_w = by_name["FlexSFP"]["w_per_10g"]
    assert flexsfp_w < 2.0 < min(
        row["w_per_10g"] for name, row in by_name.items() if name != "FlexSFP"
    )
