"""Workload generation and link impairments."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "flows": ("FlowSetGenerator", "FlowSpec", "flow_packets"),
        "impairments": ("ImpairedPort", "LossyWire"),
        "traffic": (
            "IMIX_MIX", "CbrSource", "ImixSource", "PoissonSource", "TrafficSource",
            "default_factory",
        ),
    },
)
