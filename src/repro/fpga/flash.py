"""SPI configuration flash with multi-image slots.

The prototype (§4.3) integrates a 128 Mb SPI flash "such that multiple
designs could be stored, enabling the module to be reconfigurable at
runtime".  We model the flash as fixed-size slots with erase-before-write
semantics, a golden-image slot that cannot be overwritten remotely, and a
boot-selection register — the pieces the §4.2 reprogramming FSM needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import FlashError
from .bitstream import Bitstream

DEFAULT_FLASH_BITS = 128 * 1024 * 1024  # 128 Mb (prototype)


@dataclass
class FlashSlot:
    """Directory entry for one stored image."""

    index: int
    size_bytes: int
    occupied: bool = False
    app_name: str = ""
    image_len: int = 0


class SPIFlash:
    """A slotted SPI configuration flash.

    Slot 0 is the *golden image*: writable only with ``allow_golden=True``
    (factory/JTAG path), never via the network FSM.  Every write requires
    an erase first, and erases are counted per slot for wear accounting.

    Only programmed image bytes are stored: the 0xFF padding of an erased
    or part-filled slot carries no state the directory does not.
    """

    def __init__(self, size_bits: int = DEFAULT_FLASH_BITS, slots: int = 4) -> None:
        if slots < 2:
            raise FlashError("flash needs a golden slot plus one app slot")
        if size_bits % (slots * 8):
            raise FlashError("flash size must divide evenly into slots")
        self.size_bits = size_bits
        self.slot_bytes = size_bits // 8 // slots
        self.slots = [FlashSlot(i, self.slot_bytes) for i in range(slots)]
        self._data = [b""] * slots
        self._erased = [True] * slots
        self.erase_counts = [0] * slots
        self.boot_slot = 0
        self._write_failures_pending = 0
        self.write_failures = 0
        self.bitrot_events = 0

    # ------------------------------------------------------------------
    # Raw slot operations
    # ------------------------------------------------------------------
    def _check_slot(self, index: int) -> None:
        if not 0 <= index < len(self.slots):
            raise FlashError(f"slot {index} out of range (0..{len(self.slots) - 1})")

    def erase_slot(self, index: int, allow_golden: bool = False) -> None:
        """Erase a slot to 0xFF (required before any write)."""
        self._check_slot(index)
        if index == 0 and not allow_golden:
            raise FlashError("refusing to erase the golden image slot")
        self._data[index] = b""
        self._erased[index] = True
        self.erase_counts[index] += 1
        slot = self.slots[index]
        slot.occupied = False
        slot.app_name = ""
        slot.image_len = 0

    def write_image(
        self, index: int, image: bytes, app_name: str, allow_golden: bool = False
    ) -> None:
        """Program an image into an erased slot."""
        self._check_slot(index)
        if index == 0 and not allow_golden:
            raise FlashError("refusing to program the golden image slot")
        if not self._erased[index]:
            raise FlashError(f"slot {index} must be erased before writing")
        if len(image) > self.slot_bytes:
            raise FlashError(
                f"image ({len(image)} B) exceeds slot size ({self.slot_bytes} B)"
            )
        if self._write_failures_pending > 0:
            # An injected program failure: the page buffer was written but
            # never verified, leaving the slot part-programmed garbage.
            self._write_failures_pending -= 1
            self.write_failures += 1
            self._erased[index] = False
            raise FlashError(f"slot {index} program/verify failed")
        self._data[index] = bytes(image)
        self._erased[index] = False
        slot = self.slots[index]
        slot.occupied = True
        slot.app_name = app_name
        slot.image_len = len(image)

    def read_image(self, index: int) -> bytes:
        """Read back the stored image bytes of an occupied slot."""
        self._check_slot(index)
        slot = self.slots[index]
        if not slot.occupied:
            raise FlashError(f"slot {index} is empty")
        return self._data[index]

    # ------------------------------------------------------------------
    # Bitstream-level convenience
    # ------------------------------------------------------------------
    def store_bitstream(
        self, index: int, bitstream: Bitstream, allow_golden: bool = False
    ) -> None:
        """Erase + program a bitstream into a slot."""
        self.erase_slot(index, allow_golden=allow_golden)
        self.write_image(
            index, bitstream.to_bytes(), bitstream.app_name, allow_golden=allow_golden
        )

    def load_bitstream(self, index: int) -> Bitstream:
        """Parse (and CRC-check) the bitstream stored in a slot."""
        return Bitstream.from_bytes(self.read_image(index))

    def select_boot(self, index: int) -> None:
        """Point the boot FSM at a slot for the next reboot."""
        self._check_slot(index)
        if not self.slots[index].occupied:
            raise FlashError(f"cannot boot from empty slot {index}")
        self.boot_slot = index

    def verify_slot(self, index: int) -> bool:
        """Does the slot hold an image whose CRC checks out?"""
        self._check_slot(index)
        slot = self.slots[index]
        if not slot.occupied:
            return False
        return Bitstream.crc_ok(self._data[index])

    def directory(self) -> list[FlashSlot]:
        """Snapshot of the slot directory."""
        return [
            FlashSlot(s.index, s.size_bytes, s.occupied, s.app_name, s.image_len)
            for s in self.slots
        ]

    # ------------------------------------------------------------------
    # Fault-injection hooks (exercised by repro.faults)
    # ------------------------------------------------------------------
    def corrupt_bits(self, index: int, nbits: int = 8, seed: int = 0) -> None:
        """Bit-rot injection: flip ``nbits`` seeded-random bits in a slot.

        Models charge leakage / disturb faults in the raw flash array.
        The directory still lists the slot as occupied — exactly like the
        real device, corruption is only discovered when the boot FSM
        CRC-checks the image.  Golden is *not* exempt: physics does not
        respect the write protect bit.  Rot in a slot that holds no image
        is counted but has nothing to flip.
        """
        self._check_slot(index)
        if nbits < 1:
            raise FlashError("must corrupt at least one bit")
        if self.slots[index].occupied:
            rng = random.Random(seed)
            data = bytearray(self._data[index])
            for _ in range(nbits):
                position = rng.randrange(len(data))
                data[position] ^= 1 << rng.randrange(8)
            self._data[index] = bytes(data)
        self.bitrot_events += 1

    def inject_write_failures(self, count: int = 1) -> None:
        """Make the next ``count`` image writes fail (wear-out model)."""
        if count < 1:
            raise FlashError("write failure count must be positive")
        self._write_failures_pending += count
