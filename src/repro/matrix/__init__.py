"""``repro.matrix`` — the declared tier sweep, its record and its check."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "runner": (
            "CellConfig", "MatrixAxes", "MatrixCell", "MatrixResult", "compare",
            "declared", "labels", "load_against", "run_declared", "run_matrix",
        ),
    },
)
