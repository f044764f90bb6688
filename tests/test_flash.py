"""SPI flash: slots, golden-image protection, boot selection."""

import pytest

from repro.errors import FlashError
from repro.fpga import Bitstream, ResourceVector, SPIFlash, TimingSpec, synthesize_payload


def make_bitstream(name="app") -> Bitstream:
    return Bitstream(
        app_name=name,
        shell="one-way-filter",
        device="MPF200T",
        timing=TimingSpec(64, 156.25e6),
        resources=ResourceVector(lut4=1000),
        payload=synthesize_payload(name, ResourceVector(lut4=1000), 8),
    )


class TestSlots:
    def test_geometry(self):
        flash = SPIFlash(slots=4)
        assert flash.slot_bytes == 128 * 1024 * 1024 // 8 // 4
        assert len(flash.slots) == 4

    def test_invalid_geometry(self):
        with pytest.raises(FlashError):
            SPIFlash(slots=1)

    def test_store_and_load(self):
        flash = SPIFlash()
        flash.store_bitstream(1, make_bitstream("nat"))
        loaded = flash.load_bitstream(1)
        assert loaded.app_name == "nat"

    def test_write_requires_erase(self):
        flash = SPIFlash()
        flash.store_bitstream(1, make_bitstream())
        with pytest.raises(FlashError, match="erased"):
            flash.write_image(1, b"data", "x")

    def test_image_too_large(self):
        flash = SPIFlash(size_bits=1024 * 8, slots=2)
        with pytest.raises(FlashError, match="exceeds"):
            flash.write_image(1, b"\x00" * 1024, "big")

    def test_read_empty_slot(self):
        with pytest.raises(FlashError, match="empty"):
            SPIFlash().read_image(2)

    def test_out_of_range_slot(self):
        with pytest.raises(FlashError):
            SPIFlash().erase_slot(9)

    def test_erase_counts(self):
        flash = SPIFlash()
        flash.store_bitstream(1, make_bitstream())
        flash.store_bitstream(1, make_bitstream("v2"))
        assert flash.erase_counts[1] == 2


    def test_stores_the_image_not_the_padding(self):
        """No slot-sized buffer, whatever the slot holds: erased, a short
        image, a failed program, rot with or without an image to rot."""
        flash = SPIFlash()

        def holds_only_images() -> bool:
            stored = sum(map(len, flash._data))
            return stored == sum(s.image_len for s in flash.slots)

        assert holds_only_images() and not any(flash._data)
        flash.store_bitstream(1, make_bitstream("nat"))
        flash.store_bitstream(0, make_bitstream("golden"), allow_golden=True)
        image = flash.read_image(1)
        assert holds_only_images() and 0 < len(image) < flash.slot_bytes // 100
        flash.corrupt_bits(1, nbits=16, seed=5)
        flash.corrupt_bits(2, nbits=16, seed=5)  # nothing there to flip
        assert flash.bitrot_events == 2 and not flash.verify_slot(1)
        assert flash.read_image(1) != image and flash.verify_slot(0)
        flash.inject_write_failures()
        with pytest.raises(FlashError, match="program/verify"):
            flash.store_bitstream(3, make_bitstream("v2"))
        assert holds_only_images()
        flash.erase_slot(1)
        assert holds_only_images() and flash._data[1] == b""


class TestGoldenProtection:
    def test_golden_not_erasable_by_default(self):
        with pytest.raises(FlashError, match="golden"):
            SPIFlash().erase_slot(0)

    def test_golden_writable_via_jtag_path(self):
        flash = SPIFlash()
        flash.store_bitstream(0, make_bitstream("golden"), allow_golden=True)
        assert flash.load_bitstream(0).app_name == "golden"


class TestBoot:
    def test_cannot_boot_empty_slot(self):
        with pytest.raises(FlashError):
            SPIFlash().select_boot(3)

    def test_directory_snapshot(self):
        flash = SPIFlash()
        flash.store_bitstream(1, make_bitstream("nat"))
        directory = flash.directory()
        assert directory[1].occupied and directory[1].app_name == "nat"
        assert not directory[2].occupied
        # Snapshot is detached from internals.
        directory[1].app_name = "mutated"
        assert flash.slots[1].app_name == "nat"
