"""Cost/power economics: BOM, comparables, ideal-scaling normalization."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "bom": ("FLEXSFP_BOM", "BomItem", "FlexSfpBom"),
        "comparables": (
            "DPU_BF2", "FPGA_NIC", "MANY_CORE", "Solution", "capex_saving_vs",
            "flexsfp_solution", "power_reduction_vs", "table3_report", "table3_rows",
        ),
        "scaling": ("SLICE_GBPS", "per_10g", "per_10g_band", "slices"),
    },
)
