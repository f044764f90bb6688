"""FPGA resource vectors and the device catalog.

The unit system follows the paper's Table 1: PolarFire fabric resources are
counted in 4-input LUTs (``lut4``), D flip-flops (``ff``), uSRAM blocks
(64×12 bit = 768 bit each), and LSRAM blocks (20 kbit each).  Cross-vendor
comparisons (Table 2) normalize to 4-input logic-element equivalents with
the paper's conversion factors: 1 LUT6 ≈ 1.6 LE, 1 ALM ≈ 2 LE.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import ceil_div
from ..errors import ResourceError

USRAM_BLOCK_BITS = 64 * 12  # 768 bit
LSRAM_BLOCK_BITS = 20 * 1024  # 20 kbit

LUT6_TO_LE = 1.6  # Xilinx LUT6 → 4-input LE equivalents [7]
ALM_TO_LE = 2.0  # Intel ALM → 4-input LE equivalents [16]


@dataclass(frozen=True)
class ResourceVector:
    """Fabric resources used (or offered) by a design component."""

    lut4: int = 0
    ff: int = 0
    usram: int = 0  # uSRAM blocks
    lsram: int = 0  # LSRAM blocks
    math: int = 0  # 18x18 math blocks

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.lut4 + other.lut4,
            self.ff + other.ff,
            self.usram + other.usram,
            self.lsram + other.lsram,
            self.math + other.math,
        )

    def __mul__(self, factor: int) -> "ResourceVector":
        return ResourceVector(
            self.lut4 * factor,
            self.ff * factor,
            self.usram * factor,
            self.lsram * factor,
            self.math * factor,
        )

    __rmul__ = __mul__

    @property
    def sram_bits(self) -> int:
        """Total on-chip SRAM bits this vector accounts for."""
        return self.usram * USRAM_BLOCK_BITS + self.lsram * LSRAM_BLOCK_BITS

    def as_dict(self) -> dict[str, int]:
        return {
            "lut4": self.lut4,
            "ff": self.ff,
            "usram": self.usram,
            "lsram": self.lsram,
            "math": self.math,
        }

    @staticmethod
    def sum(vectors: "list[ResourceVector]") -> "ResourceVector":
        total = ResourceVector()
        for vector in vectors:
            total = total + vector
        return total


@dataclass(frozen=True)
class FPGADevice:
    """A device in the catalog, with capacity, speed, and unit price.

    ``logic_elements`` is the marketing LE count; ``lut4``/``ff`` are the
    usable fabric resources (for PolarFire these match the Table 1 "Avail."
    row). Prices are the paper's order-of-magnitude figures at ~1k units.
    """

    name: str
    family: str
    logic_elements: int
    lut4: int
    ff: int
    usram: int
    lsram: int
    math: int
    process_nm: int
    max_fabric_mhz: float
    transceivers: int
    transceiver_gbps: float
    unit_price_usd: float

    @property
    def capacity(self) -> ResourceVector:
        return ResourceVector(self.lut4, self.ff, self.usram, self.lsram, self.math)

    @property
    def sram_bits(self) -> int:
        return self.capacity.sram_bits

    @property
    def sram_kbit(self) -> float:
        return self.sram_bits / 1024

    def utilization(self, used: ResourceVector) -> dict[str, float]:
        """Fractional utilization per resource class."""
        return {
            "lut4": used.lut4 / self.lut4 if self.lut4 else 0.0,
            "ff": used.ff / self.ff if self.ff else 0.0,
            "usram": used.usram / self.usram if self.usram else 0.0,
            "lsram": used.lsram / self.lsram if self.lsram else 0.0,
            "math": used.math / self.math if self.math else 0.0,
        }

    def fits(self, used: ResourceVector) -> bool:
        """True iff ``used`` fits within the device capacity."""
        return (
            used.lut4 <= self.lut4
            and used.ff <= self.ff
            and used.usram <= self.usram
            and used.lsram <= self.lsram
            and used.math <= self.math
        )

    def overflow_report(self, used: ResourceVector) -> list[str]:
        """One ``key: used > limit`` string per over-capacity resource.

        The keys of :meth:`ResourceVector.as_dict` double as attribute
        names on the device, so every resource class added to the vector
        must gain a matching capacity attribute here (a test locks this).
        """
        return [
            f"{key}: {value} > {getattr(self, key)}"
            for key, value in used.as_dict().items()
            if value > getattr(self, key)
        ]


def sram_blocks_for_table(entries: int, entry_bits: int) -> int:
    """LSRAM blocks needed to store ``entries`` × ``entry_bits`` of state.

    Matches the paper's NAT sizing: 32768 flows × ~100 bit ⇒ 160 blocks.
    """
    if entries <= 0 or entry_bits <= 0:
        raise ResourceError("table sizing requires positive entries/entry_bits")
    return ceil_div(entries * entry_bits, LSRAM_BLOCK_BITS)


def usram_blocks_for_bits(bits: int) -> int:
    """uSRAM blocks needed for ``bits`` of small/shallow storage."""
    if bits < 0:
        raise ResourceError("negative storage request")
    return ceil_div(bits, USRAM_BLOCK_BITS) if bits else 0


# ----------------------------------------------------------------------
# Device catalog
# ----------------------------------------------------------------------
# MPF200T numbers come from the paper's Table 1 "Avail." row; siblings are
# scaled from the PolarFire family datasheet (approximate, documented in
# DESIGN.md).  Prices: MPF200T ≈ $200 @1k units (paper §5.2).
MPF100T = FPGADevice(
    name="MPF100T",
    family="PolarFire",
    logic_elements=109_000,
    lut4=108_600,
    ff=108_600,
    usram=1_008,
    lsram=352,
    math=336,
    process_nm=28,
    max_fabric_mhz=400.0,
    transceivers=4,
    transceiver_gbps=12.7,
    unit_price_usd=130.0,
)

MPF200T = FPGADevice(
    name="MPF200T",
    family="PolarFire",
    logic_elements=192_000,
    lut4=192_408,
    ff=192_408,
    usram=1_764,
    lsram=616,
    math=588,
    process_nm=28,
    max_fabric_mhz=400.0,
    transceivers=4,
    transceiver_gbps=12.7,
    unit_price_usd=200.0,
)

MPF300T = FPGADevice(
    name="MPF300T",
    family="PolarFire",
    logic_elements=300_000,
    lut4=299_544,
    ff=299_544,
    usram=2_772,
    lsram=952,
    math=924,
    process_nm=28,
    max_fabric_mhz=400.0,
    transceivers=8,
    transceiver_gbps=12.7,
    unit_price_usd=330.0,
)

MPF500T = FPGADevice(
    name="MPF500T",
    family="PolarFire",
    logic_elements=481_000,
    lut4=480_000,
    ff=480_000,
    usram=4_440,
    lsram=1_520,
    math=1_480,
    process_nm=28,
    max_fabric_mhz=400.0,
    transceivers=16,
    transceiver_gbps=12.7,
    unit_price_usd=600.0,
)

DEVICES: dict[str, FPGADevice] = {
    device.name: device for device in (MPF100T, MPF200T, MPF300T, MPF500T)
}


def get_device(name: str) -> FPGADevice:
    """Look up a catalog device by name."""
    try:
        return DEVICES[name]
    except KeyError:
        raise ResourceError(
            f"unknown device {name!r}; known: {sorted(DEVICES)}"
        ) from None
