"""Datapath timing: clock × width arithmetic and line-rate feasibility.

The paper's feasibility argument is exactly this arithmetic: a 64-bit
datapath at 156.25 MHz moves 10 Gbps raw, which sustains 10GbE line rate
because inter-frame overhead (preamble + IFG) gives the pipeline slack.
Scaling to 25/40/100 G (§5.3) widens the bus and/or raises the clock; the
Two-Way-Core shell (Figure 1b) must process the *sum* of both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._util import ceil_div
from ..errors import TimingError
from ..sim.mac import MIN_FRAME_BYTES, frame_wire_bytes

# Per-frame pipeline bubble: cycles lost between frames for start-of-packet
# alignment and metadata issue (typical for streaming AXI-like datapaths).
INTER_FRAME_BUBBLE_CYCLES = 1


@dataclass(frozen=True)
class TimingSpec:
    """A synthesized datapath operating point."""

    datapath_bits: int
    clock_hz: float

    def __post_init__(self) -> None:
        if self.datapath_bits <= 0 or self.datapath_bits % 8:
            raise TimingError(
                f"datapath width must be a positive multiple of 8 bits, "
                f"got {self.datapath_bits}"
            )
        if not 0 < self.clock_hz < math.inf:  # NaN fails both
            raise TimingError("clock must be positive and finite")

    @property
    def datapath_bytes(self) -> int:
        return self.datapath_bits // 8

    @property
    def raw_throughput_bps(self) -> float:
        """Bus bandwidth with no per-frame bubbles."""
        return self.datapath_bits * self.clock_hz

    def cycles_per_frame(self, frame_len_no_fcs: int, extra_cycles: int = 0) -> int:
        """Pipeline-occupancy cycles for one frame (beats + bubble).

        ``extra_cycles`` adds per-frame stall cycles beyond the streaming
        beats — e.g. table-port conflict penalties derived by the effect
        analysis (:mod:`repro.analysis.effects`).
        """
        frame = max(frame_len_no_fcs + 4, MIN_FRAME_BYTES)  # MAC pads + FCS
        return (
            ceil_div(frame, self.datapath_bytes)
            + INTER_FRAME_BUBBLE_CYCLES
            + extra_cycles
        )

    def frame_service_time(
        self, frame_len_no_fcs: int, extra_cycles: int = 0
    ) -> float:
        """Seconds the PPE needs to stream one frame through."""
        return self.cycles_per_frame(frame_len_no_fcs, extra_cycles) / self.clock_hz

    def max_frame_rate(self, frame_len_no_fcs: int) -> float:
        """Frames/second the datapath can stream at this operating point."""
        return 1.0 / self.frame_service_time(frame_len_no_fcs)

    def effective_throughput_bps(self, frame_len_no_fcs: int) -> float:
        """Goodput (frame bits/s, no FCS) at full pipeline occupancy."""
        return self.max_frame_rate(frame_len_no_fcs) * frame_len_no_fcs * 8

    def sustains_line_rate(
        self, line_rate_bps: float, frame_len_no_fcs: int, extra_cycles: int = 0
    ) -> bool:
        """Can the PPE keep up with back-to-back frames at ``line_rate_bps``?

        A frame arrives every ``frame_wire_bytes × 8 / line_rate`` seconds
        (wire accounting includes preamble/FCS/IFG); the PPE must service a
        frame in no more time than that.  ``extra_cycles`` charges static
        per-frame stalls (table-port conflicts) on top of the streaming
        beats.
        """
        arrival_interval = frame_wire_bytes(frame_len_no_fcs) * 8 / line_rate_bps
        # Tiny relative tolerance so an operating point computed exactly at
        # the threshold (required_clock_hz) is accepted despite float
        # rounding; 1e-12 is far below any physical margin.
        return self.frame_service_time(
            frame_len_no_fcs, extra_cycles
        ) <= arrival_interval * (1 + 1e-12)

    def worst_case_frame(
        self, line_rate_bps: float, extra_cycles: int = 0
    ) -> tuple[int, bool]:
        """Scan standard frame sizes; return (worst size, sustained?)."""
        worst_size = MIN_FRAME_BYTES - 4
        worst_margin = float("inf")
        for size in (60, 64, 128, 256, 512, 1024, 1514):
            arrival = frame_wire_bytes(size) * 8 / line_rate_bps
            margin = arrival - self.frame_service_time(size, extra_cycles)
            if margin < worst_margin:
                worst_margin = margin
                worst_size = size
        return worst_size, worst_margin >= 0


def required_clock_hz(
    line_rate_bps: float,
    datapath_bits: int,
    frame_len_no_fcs: int = MIN_FRAME_BYTES - 4,
) -> float:
    """Minimum clock for ``datapath_bits`` to sustain ``line_rate_bps``.

    Solves the per-frame service-time inequality for the given (worst-case)
    frame size.
    """
    if datapath_bits <= 0 or datapath_bits % 8:
        raise TimingError("datapath width must be a positive multiple of 8 bits")
    frame = max(frame_len_no_fcs + 4, MIN_FRAME_BYTES)
    cycles = ceil_div(frame, datapath_bits // 8) + INTER_FRAME_BUBBLE_CYCLES
    arrival_interval = frame_wire_bytes(frame_len_no_fcs) * 8 / line_rate_bps
    return cycles / arrival_interval


def required_width_bits(
    line_rate_bps: float,
    clock_hz: float,
    frame_len_no_fcs: int = MIN_FRAME_BYTES - 4,
    max_width_bits: int = 2048,
) -> int:
    """Smallest power-of-two bus width sustaining ``line_rate_bps``.

    Raises :class:`TimingError` when no width up to ``max_width_bits``
    suffices (the clock itself is too slow for the per-frame bubble).
    """
    width = 8
    while width <= max_width_bits:
        if TimingSpec(width, clock_hz).sustains_line_rate(
            line_rate_bps, frame_len_no_fcs
        ):
            return width
        width *= 2
    raise TimingError(
        f"no datapath width <= {max_width_bits} b sustains "
        f"{line_rate_bps / 1e9:.1f} Gbps at {clock_hz / 1e6:.1f} MHz"
    )


# The prototype's synthesized operating point (§5.1).
PROTOTYPE_TIMING = TimingSpec(datapath_bits=64, clock_hz=156.25e6)
