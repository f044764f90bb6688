"""Shared helpers for the benchmark harness.

Every bench prints the rows/series the paper reports (via ``report``) and
asserts the *shape* of the result — who wins, by roughly what factor —
rather than exact figures (see EXPERIMENTS.md for the calibration story).

Benches also emit schema-tagged documents instead of bare prints: set
``FLEXSFP_METRICS_DIR=<dir>`` and :func:`export_bench` writes each run's
``flexsfp.run/1`` artifact to ``<dir>/BENCH_<tag>.run.json`` (atomically:
temp file + fsync + rename, so a killed bench never leaves half a file).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from repro._util import write_text_atomic
from repro.artifact import artifact_from_bench
from repro.config import get_settings


def report(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Format and print a fixed-width results table; returns the text."""
    columns = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    lines = ["", f"== {title} =="]
    lines.append("  ".join(str(h).ljust(columns[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * width for width in columns))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(columns[i]) for i, cell in enumerate(row))
        )
    text = "\n".join(lines)
    print(text)
    return text


def fmt_pct(fraction: float) -> str:
    return f"{fraction:.0%}"


def export_bench(
    bench: str,
    metrics: Mapping[str, object],
    seed: int = 0,
    knobs: Mapping[str, object] | None = None,
    summary: Mapping[str, object] | None = None,
    wall_s: float | None = None,
) -> Path | None:
    """Write a bench result's ``flexsfp.run/1`` artifact.

    Returns the ``BENCH_<bench>.run.json`` path, or ``None`` when
    ``FLEXSFP_METRICS_DIR`` is unset.
    """
    directory = get_settings().metrics_dir
    if directory is None:
        return None
    artifact = artifact_from_bench(
        bench, metrics, seed=seed, knobs=knobs, summary=summary, wall_s=wall_s
    )
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{bench}.run.json"
    write_text_atomic(path, artifact.document() + "\n")
    return path
