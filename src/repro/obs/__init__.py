"""In-cable observability: metrics registry, packet tracing, profiling.

The substrate behind the paper's telemetry use cases, applied to the
simulation itself: every component publishes into one hierarchical
dotted-name :class:`MetricsRegistry`, packets can opt into per-stage
:class:`Tracer` spans with virtual timestamps, and a :class:`LoopProfiler`
attributes event-loop wall clock to component classes.  Exporters render
the collected state as Prometheus text, JSON documents, or JSON Lines.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "export": (
            "SCHEMA_DIFF", "SCHEMA_JOURNAL", "SCHEMA_MATRIX", "SCHEMA_METRICS",
            "SCHEMA_RUN", "SCHEMA_TABLE", "SCHEMA_TRACE", "json_document",
            "metrics_json", "metrics_jsonl", "prometheus_name", "prometheus_text",
            "table_json",
        ),
        "profiler": ("ComponentProfile", "LoopProfiler"),
        "registry": (
            "MetricSource", "MetricsRegistry", "MetricValue", "validate_metric_name",
        ),
        "scenario": (
            "SCENARIO_KINDS", "SCENARIOS", "ScenarioRun", "ScenarioSpec",
            "TrafficProfile",
        ),
        "trace": (
            "STAGE_APP", "STAGE_ARBITER", "STAGE_EGRESS", "STAGE_MAC_RX", "STAGE_PPE",
            "TRACE_ID_META", "Tracer", "TraceSpan",
        ),
    },
)
