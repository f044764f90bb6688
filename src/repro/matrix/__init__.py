"""``repro.matrix`` — sweep ScenarioSpec axes and cross-diff the cells."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "runner": (
            "CellConfig", "MatrixAxes", "MatrixCell", "MatrixResult",
            "parse_axis_values", "parse_int_axis", "parse_optional_axis",
            "run_matrix",
        ),
    },
)
