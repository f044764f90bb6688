"""Resource vectors, device catalog, and SRAM sizing (Table 1 math)."""

import pytest

from repro.errors import ResourceError
from repro.fpga import (
    LSRAM_BLOCK_BITS,
    MPF100T,
    MPF200T,
    USRAM_BLOCK_BITS,
    ResourceVector,
    get_device,
    sram_blocks_for_table,
    usram_blocks_for_bits,
)


class TestResourceVector:
    def test_addition(self):
        total = ResourceVector(1, 2, 3, 4, 5) + ResourceVector(10, 20, 30, 40, 50)
        assert total == ResourceVector(11, 22, 33, 44, 55)

    def test_scalar_multiplication(self):
        assert 3 * ResourceVector(lut4=2, ff=1) == ResourceVector(lut4=6, ff=3)

    def test_sum(self):
        vectors = [ResourceVector(lut4=1)] * 4
        assert ResourceVector.sum(vectors).lut4 == 4

    def test_sram_bits(self):
        vec = ResourceVector(usram=2, lsram=3)
        assert vec.sram_bits == 2 * USRAM_BLOCK_BITS + 3 * LSRAM_BLOCK_BITS

    def test_as_dict(self):
        assert ResourceVector(lut4=7).as_dict()["lut4"] == 7


class TestDeviceCatalog:
    def test_mpf200t_matches_table1_avail_row(self):
        assert MPF200T.lut4 == 192_408
        assert MPF200T.ff == 192_408
        assert MPF200T.usram == 1_764
        assert MPF200T.lsram == 616

    def test_fits(self):
        assert MPF200T.fits(ResourceVector(lut4=100_000))
        assert not MPF200T.fits(ResourceVector(lut4=200_000))
        assert not MPF100T.fits(ResourceVector(lsram=400))

    def test_utilization(self):
        util = MPF200T.utilization(ResourceVector(lut4=MPF200T.lut4 // 2))
        assert util["lut4"] == pytest.approx(0.5)
        assert util["lsram"] == 0.0

    def test_get_device(self):
        assert get_device("MPF200T") is MPF200T
        with pytest.raises(ResourceError):
            get_device("XC7K325T")

    def test_family_ordering(self):
        # Bigger parts must strictly dominate smaller ones.
        assert MPF200T.lut4 > MPF100T.lut4
        assert MPF200T.lsram > MPF100T.lsram


class TestSramSizing:
    def test_paper_nat_table_is_exactly_160_blocks(self):
        # 32768 flows x 100-bit entries == 160 LSRAM blocks (paper Table 1).
        assert sram_blocks_for_table(32_768, 100) == 160

    def test_rounding_up(self):
        assert sram_blocks_for_table(1, 1) == 1
        assert sram_blocks_for_table(2048, 11) == 2  # 22528 bits -> 2 blocks

    def test_invalid_inputs(self):
        with pytest.raises(ResourceError):
            sram_blocks_for_table(0, 100)
        with pytest.raises(ResourceError):
            sram_blocks_for_table(10, 0)

    def test_usram_blocks(self):
        assert usram_blocks_for_bits(0) == 0
        assert usram_blocks_for_bits(1) == 1
        assert usram_blocks_for_bits(768) == 1
        assert usram_blocks_for_bits(769) == 2
        with pytest.raises(ResourceError):
            usram_blocks_for_bits(-1)
