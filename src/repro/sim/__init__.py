"""Discrete-event network simulation substrate.

Provides the event engine, Ethernet MAC arithmetic, port/link transport,
measurement primitives, and pcap persistence used by every higher layer.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "engine": ("EventHandle", "PeriodicTask", "Simulator"),
        "link": ("DEFAULT_PROPAGATION_S", "Port", "connect"),
        "mac": (
            "FCS_BYTES", "IFG_BYTES", "JUMBO_FRAME_BYTES", "MAX_FRAME_BYTES",
            "MIN_FRAME_BYTES", "PER_FRAME_OVERHEAD", "PREAMBLE_BYTES",
            "frame_wire_bytes", "goodput_fraction", "line_rate_packets",
            "max_frame_rate", "serialization_time",
        ),
        "pcap": ("PcapWriter", "read_pcap"),
        "stats": ("Counter", "Histogram", "RateMeter", "RunningStats"),
    },
)
