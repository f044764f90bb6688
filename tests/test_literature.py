"""Table 2: literature designs normalized against the FlexSFP budget."""

import pytest

from repro.errors import ConfigError
from repro.fpga import (
    CLICKNP_IPSEC_GW,
    FLOWBLAZE_STAGE,
    HXDP_CORE,
    MPF200T,
    PIGASUS,
    LiteratureDesign,
    table2_rows,
)


class TestNormalization:
    def test_lut6_factor(self):
        # Paper: 71712 LUT6 ~ 115k LE.
        assert FLOWBLAZE_STAGE.normalized_le() == pytest.approx(114_739.2)

    def test_alm_factor(self):
        # Paper: 207960 ALM ~ 416k LE.
        assert PIGASUS.normalized_le() == pytest.approx(415_920)

    def test_hxdp(self):
        # Paper: ~68689 LUT6 ~ 109k LE.
        assert HXDP_CORE.normalized_le() == pytest.approx(109_902.4)

    def test_clicknp(self):
        # Paper: ~242592 LUT6 ~ 388k LE.
        assert CLICKNP_IPSEC_GW.normalized_le() == pytest.approx(388_147.2)

    def test_unknown_unit_rejected(self):
        design = LiteratureDesign("x", 100, "slice", 10.0)
        with pytest.raises(ConfigError):
            design.normalized_le()


class TestFitChecks:
    def test_hxdp_fits(self):
        assert HXDP_CORE.fits_device(MPF200T)
        assert HXDP_CORE.fit_class(MPF200T) == "fits"

    def test_flowblaze_is_marginal_on_bram(self):
        # 14.1 Mb BRAM vs ~13.3 Mb budget: logic fits, BRAM within 10%.
        assert not FLOWBLAZE_STAGE.fits_device(MPF200T)
        assert FLOWBLAZE_STAGE.fit_class(MPF200T) == "marginal"
        assert FLOWBLAZE_STAGE.fit_report(MPF200T)["logic_ratio"] < 1.0

    def test_pigasus_and_clicknp_exceed(self):
        assert PIGASUS.fit_class(MPF200T) == "exceeds"
        assert CLICKNP_IPSEC_GW.fit_class(MPF200T) == "exceeds"
        # The 100G-class designs are over twice the logic budget.
        assert PIGASUS.fit_report(MPF200T)["logic_ratio"] > 2.0
        assert CLICKNP_IPSEC_GW.fit_report(MPF200T)["logic_ratio"] > 2.0

    def test_table2_rows_complete(self):
        rows = table2_rows()
        names = [row["name"] for row in rows]
        assert names == [
            "FlowBlaze (1 stage)",
            "Pigasus",
            "hXDP (1 core)",
            "ClickNP IPSec GW",
            "FlexSFP (MPF200T)",
        ]
        flexsfp = rows[-1]
        assert flexsfp["fits"] and flexsfp["logic_ratio"] == 1.0

    def test_row_ratios_consistent(self):
        for row in table2_rows():
            assert row["fits"] == (
                row["logic_ratio"] <= 1.0 and row["bram_ratio"] <= 1.0
            )
