"""Shared helpers for the benchmark harness.

Every bench prints the rows/series the paper reports (via ``report``) and
asserts the *shape* of the result — who wins, by roughly what factor —
rather than exact figures (see EXPERIMENTS.md for the calibration story).

Benches also emit schema-tagged documents instead of bare prints: set
``FLEXSFP_BENCH_DIR=<dir>`` (falling back to ``FLEXSFP_METRICS_DIR``) and
:func:`export_bench` / :func:`export_artifact` write each run's
``flexsfp.run/1`` artifact to ``<dir>/BENCH_<tag>.run.json`` and append
it to the ``<dir>/BENCH_<tag>.json`` history document
(``flexsfp.bench-history/1``) — the accumulating series that lets CI
compare tonight's numbers against last month's.  All writes are atomic
(temp file + fsync + rename), so a killed bench never tears the history.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from repro._util import write_text_atomic
from repro.artifact import RunArtifact, artifact_from_bench
from repro.config import get_settings
from repro.obs.export import SCHEMA_BENCH_HISTORY, json_document

# History files keep the most recent entries only: enough for trend
# lines, bounded so a long-lived CI artifact directory never balloons.
HISTORY_LIMIT = 200


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


def bench_export_dir() -> Path | None:
    """Where bench artifacts land (``FLEXSFP_BENCH_DIR``/``_METRICS_DIR``)."""
    return get_settings().bench_export_dir


def export_artifact(tag: str, artifact: RunArtifact) -> Path | None:
    """Persist one bench run: latest artifact + appended history.

    Writes ``BENCH_<tag>.run.json`` (the current ``flexsfp.run/1``
    document) and appends the artifact to ``BENCH_<tag>.json`` — a
    ``flexsfp.bench-history/1`` document whose ``entries`` accumulate
    across invocations (newest last, capped at :data:`HISTORY_LIMIT`).
    Returns the history path, or ``None`` when no export directory is
    configured.
    """
    directory = bench_export_dir()
    if directory is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    write_text_atomic(directory / f"BENCH_{tag}.run.json", artifact.document() + "\n")
    history_path = directory / f"BENCH_{tag}.json"
    entries: list[dict] = []
    if history_path.is_file():
        try:
            payload = json.loads(history_path.read_text())
            if payload.get("schema") == SCHEMA_BENCH_HISTORY:
                entries = list(payload.get("entries", []))
        except (json.JSONDecodeError, OSError):
            entries = []  # a torn/foreign file restarts the series
    entries.append(artifact.to_dict())
    entries = entries[-HISTORY_LIMIT:]
    write_text_atomic(
        history_path,
        json_document(SCHEMA_BENCH_HISTORY, bench=tag, entries=entries) + "\n",
    )
    return history_path


def export_bench(
    bench: str,
    metrics: Mapping[str, object],
    seed: int = 0,
    knobs: Mapping[str, object] | None = None,
    summary: Mapping[str, object] | None = None,
    wall_s: float | None = None,
) -> Path | None:
    """Build a ``flexsfp.run/1`` artifact for a bench result and persist it."""
    artifact = artifact_from_bench(
        bench, metrics, seed=seed, knobs=knobs, summary=summary, wall_s=wall_s
    )
    return export_artifact(bench, artifact)
