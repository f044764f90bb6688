"""``repro.matrix`` — sweep ScenarioSpec axes and cross-diff the cells."""

from .runner import (
    CellConfig,
    MatrixAxes,
    MatrixCell,
    MatrixResult,
    parse_axis_values,
    parse_int_axis,
    parse_optional_axis,
    run_matrix,
)

__all__ = [
    "CellConfig",
    "MatrixAxes",
    "MatrixCell",
    "MatrixResult",
    "parse_axis_values",
    "parse_int_axis",
    "parse_optional_axis",
    "run_matrix",
]
