"""Exporters: the registry and tracer rendered for machines.

Three stable output formats share one schema family:

* ``metrics JSON`` — a single document ``{"schema": "flexsfp.metrics/1",
  "metrics": {name: value, ...}}`` with names sorted;
* ``metrics JSONL`` — one ``{"name": ..., "value": ...}`` object per
  line (stream-friendly, same names/values as the document form);
* ``Prometheus text`` — ``flexsfp_<name> <value>`` gauge lines with dots
  mangled to underscores; non-numeric values become ``# info`` comments.

The CLI's ``--json`` mode reuses :func:`json_document` so every command's
machine-readable output carries the same ``schema`` discriminator and
canonical (sorted-keys) encoding as the metrics exporter.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .registry import MetricValue

SCHEMA_METRICS = "flexsfp.metrics/1"
SCHEMA_TABLE = "flexsfp.table/1"
SCHEMA_TRACE = "flexsfp.trace/1"
SCHEMA_JOURNAL = "flexsfp.journal/1"
SCHEMA_RUN = "flexsfp.run/1"
SCHEMA_MATRIX = "flexsfp.matrix/1"
SCHEMA_DIFF = "flexsfp.diff/1"

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def json_document(schema: str, **fields: object) -> str:
    """Canonical one-line JSON document with a ``schema`` discriminator."""
    document = {"schema": schema}
    document.update(fields)
    return json.dumps(document, sort_keys=True, default=str)


def metrics_json(metrics: Mapping[str, "MetricValue"]) -> str:
    """The registry view as one schema-tagged JSON document."""
    return json_document(SCHEMA_METRICS, metrics=dict(sorted(metrics.items())))


def metrics_jsonl(metrics: Mapping[str, "MetricValue"]) -> str:
    """One ``{"name": ..., "value": ...}`` JSON object per line."""
    return "\n".join(
        json.dumps({"name": name, "value": value}, sort_keys=True, default=str)
        for name, value in sorted(metrics.items())
    )


def prometheus_name(name: str) -> str:
    """Mangle a dotted metric name into a Prometheus-legal one."""
    return "flexsfp_" + _PROM_SANITIZE.sub("_", name)


def prometheus_text(metrics: Mapping[str, "MetricValue"]) -> str:
    """Prometheus exposition-format gauges (sorted, trailing newline).

    Booleans export as 0/1; strings, which Prometheus cannot carry as
    sample values, surface as ``# info`` comment lines so the text stays
    lossless for human readers.
    """
    lines: list[str] = []
    for name, value in sorted(metrics.items()):
        mangled = prometheus_name(name)
        if isinstance(value, bool):
            lines.append(f"# TYPE {mangled} gauge")
            lines.append(f"{mangled} {int(value)}")
        elif isinstance(value, (int, float)):
            lines.append(f"# TYPE {mangled} gauge")
            value_repr = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{mangled} {value_repr}")
        else:
            lines.append(f"# info {mangled} {value}")
    return "\n".join(lines) + "\n"


def table_json(
    title: str,
    columns: tuple[str, ...] | list[str],
    rows: list,
    **extra: object,
) -> str:
    """A CLI table as one schema-tagged JSON document."""
    return json_document(
        SCHEMA_TABLE,
        title=title,
        columns=list(columns),
        rows=[list(row) for row in rows],
        **extra,
    )
