"""Workload generation and telemetry collection."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "collector": ("CollectorState", "FlowAggregate", "TelemetryCollector"),
        "flows": ("FlowSetGenerator", "FlowSpec", "flow_packets"),
        "impairments": ("ImpairedPort", "LossyWire"),
        "traffic": (
            "IMIX_MIX", "CbrSource", "ImixSource", "PoissonSource", "TrafficSource",
            "default_factory",
        ),
    },
)
