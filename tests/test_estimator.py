"""Synthesis cost model: scaling behaviour and parameter validation.

The Table 1 calibration is checked in ``tests/test_paper_claims.py``."""

import pytest

from repro.errors import ResourceError
from repro.fpga import estimator as E


class TestScalingBehaviour:
    def test_parser_grows_with_headers(self):
        assert E.parser(54).lut4 > E.parser(34).lut4

    def test_parser_grows_with_width(self):
        assert E.parser(34, 512).lut4 > E.parser(34, 64).lut4

    def test_width_growth_is_sublinear(self):
        narrow, wide = E.parser(34, 64), E.parser(34, 512)
        assert wide.lut4 < narrow.lut4 * 8

    def test_table_storage_scales_linearly(self):
        small = E.exact_match_table(1_024, 32, 64)
        large = E.exact_match_table(32_768, 32, 64)
        assert large.lsram == pytest.approx(small.lsram * 32, rel=0.01)

    def test_ternary_is_lut_hungry(self):
        # The reason big ACLs don't fit (§5.3 scoping).
        tcam = E.ternary_table(1_024, 104, 8)
        sram_table = E.exact_match_table(1_024, 104, 8)
        assert tcam.lut4 > 10 * sram_table.lut4

    def test_lpm_doubles_storage(self):
        exact = E.exact_match_table(4_096, 32, 32)
        lpm = E.lpm_table(4_096, 32, 32)
        assert lpm.lsram == 2 * exact.lsram

    def test_fifo_spills_to_lsram_when_deep(self):
        shallow = E.frame_fifo(2 * 1518)
        deep = E.frame_fifo(64 * 1518)
        assert shallow.usram > 0 and shallow.lsram == 0
        assert deep.lsram > 0 and deep.usram == 0

    def test_counter_and_meter_banks(self):
        assert E.counter_bank(1_024).usram > E.counter_bank(16).usram
        assert E.meter_bank(512).usram > E.meter_bank(8).usram


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: E.parser(0),
            lambda: E.deparser(0),
            lambda: E.crc_hash(0),
            lambda: E.exact_match_table(0, 32, 32),
            lambda: E.lpm_table(0, 32, 32),
            lambda: E.ternary_table(0, 32, 32),
            lambda: E.action_unit(-1),
            lambda: E.frame_fifo(0),
            lambda: E.counter_bank(0),
            lambda: E.meter_bank(0),
            lambda: E.pipeline_glue(0),
            lambda: E.ethernet_interface_10g("coax"),
        ],
    )
    def test_invalid_parameters_rejected(self, call):
        with pytest.raises(ResourceError):
            call()
