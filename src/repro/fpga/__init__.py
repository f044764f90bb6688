"""FPGA substrate: resources, timing, synthesis estimation, bitstreams.

This package replaces the vendor toolchain and silicon in the reproduction:
resource arithmetic stands in for place & route, the timing model for
static timing analysis, and :class:`Bitstream`/:class:`SPIFlash` for the
configuration artifacts the real module stores and boots.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "bitstream": ("Bitstream", "synthesize_payload"),
        "estimator": ("estimator",),
        "flash": ("DEFAULT_FLASH_BITS", "FlashSlot", "SPIFlash"),
        "formfactor": (
            "FORM_FACTORS", "OSFP", "QSFP28", "QSFP_DD", "SFP28", "SFP_PLUS",
            "EnvelopeCheck", "FormFactor", "envelope_check", "envelope_report",
        ),
        "literature": (
            "CLICKNP_IPSEC_GW", "FLEXSFP_BUDGET", "FLOWBLAZE_STAGE", "HXDP_CORE",
            "PIGASUS", "TABLE2_DESIGNS", "LiteratureDesign", "table2_report",
            "table2_rows",
        ),
        "resources": (
            "ALM_TO_LE", "DEVICES", "LSRAM_BLOCK_BITS", "LUT6_TO_LE", "MPF100T",
            "MPF200T", "MPF300T", "MPF500T", "USRAM_BLOCK_BITS", "FPGADevice",
            "ResourceVector", "get_device", "sram_blocks_for_table",
            "usram_blocks_for_bits",
        ),
        "timing": (
            "PROTOTYPE_TIMING", "TimingSpec", "required_clock_hz",
            "required_width_bits",
        ),
    },
)
