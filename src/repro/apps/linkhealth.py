"""Active link-health monitoring (§3): flaps, microbursts, fiber breaks.

"Programmable SFPs can also play an active role in detecting faults such
as link flapping, microbursts, or fiber breaks, with a 'wire-level'
capillarity that centralized tools can hardly achieve."

The monitor observes every frame crossing the module and detects:

* **microbursts** — a run of back-to-back minimum-gap arrivals (or a PPE
  queue spike) inside a short window;
* **dead intervals** — silence longer than ``dead_interval_ns`` on a link
  that was carrying traffic (a flap or break candidate, reported when
  traffic resumes or when :meth:`check_liveness` is polled);
* **flapping** — repeated dead intervals within the flap window.

Alerts are exported as UDP datagrams to a collector via ``ctx.emit``, so
a fleet of FlexSFPs becomes a distributed link-health sensor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .._util import check_ipv4
from ..core.ppe import Direction, PPEApplication, PPEContext, Verdict
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet, make_udp

ALERT_PORT = 5606
_ALERT = struct.Struct("!HBxIQQ")
ALERT_VERSION = 1

ALERT_KINDS = {"microburst": 1, "dead-interval": 2, "flapping": 3}
ALERT_KIND_NAMES = {v: k for k, v in ALERT_KINDS.items()}


@dataclass(frozen=True)
class LinkEvent:
    """One detected link-health event."""

    kind: str
    at_ns: int
    detail_ns: int  # burst length / silence length


def pack_alert(device_id: int, event: LinkEvent) -> bytes:
    return _ALERT.pack(
        ALERT_VERSION, ALERT_KINDS[event.kind], device_id, event.at_ns, event.detail_ns
    )


def unpack_alert(payload: bytes) -> tuple[int, LinkEvent]:
    version, kind, device_id, at_ns, detail_ns = _ALERT.unpack_from(payload, 0)
    if version != ALERT_VERSION:
        raise ConfigError(f"unknown alert version {version}")
    return device_id, LinkEvent(ALERT_KIND_NAMES[kind], at_ns, detail_ns)


class LinkHealthMonitor(PPEApplication):
    """Passive per-port fault detector."""

    name = "linkhealth"

    def __init__(
        self,
        burst_gap_ns: int = 100,
        burst_packets: int = 32,
        dead_interval_ns: int = 1_000_000,  # 1 ms of silence
        flap_count: int = 3,
        flap_window_ns: int = 1_000_000_000,
        collector_ip: str | int = "203.0.113.10",
        exporter_ip: str | int = "203.0.113.3",
    ) -> None:
        super().__init__()
        if burst_packets < 2:
            raise ConfigError("burst_packets must be at least 2")
        if dead_interval_ns <= 0 or flap_window_ns <= 0:
            raise ConfigError("intervals must be positive")
        check_ipv4("linkhealth", collector_ip=collector_ip, exporter_ip=exporter_ip)
        self.burst_gap_ns = burst_gap_ns
        self.burst_packets = burst_packets
        self.dead_interval_ns = dead_interval_ns
        self.flap_count = flap_count
        self.flap_window_ns = flap_window_ns
        self.collector_ip = collector_ip
        self.exporter_ip = exporter_ip
        self.events: list[LinkEvent] = []
        self._last_arrival_ns: int | None = None
        self._burst_run = 0
        self._burst_start_ns = 0
        self._burst_open = False
        self._dead_marks: list[int] = []

    # ------------------------------------------------------------------
    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        now = ctx.time_ns
        if self._last_arrival_ns is not None:
            gap = now - self._last_arrival_ns
            self._track_burst(gap, now, ctx)
            self._track_silence(gap, now, ctx)
        else:
            self._burst_run = 1
            self._burst_start_ns = now
        self._last_arrival_ns = now
        self.count("observed", packet)
        return Verdict.PASS

    def _track_burst(self, gap_ns: int, now: int, ctx: PPEContext) -> None:
        if gap_ns <= self.burst_gap_ns:
            if self._burst_run == 0:
                self._burst_start_ns = now
            self._burst_run += 1
            if self._burst_run == self.burst_packets and not self._burst_open:
                self._burst_open = True
                self._record(
                    LinkEvent("microburst", now, now - self._burst_start_ns), ctx
                )
        else:
            self._burst_run = 0
            self._burst_open = False

    def _track_silence(self, gap_ns: int, now: int, ctx: PPEContext) -> None:
        if gap_ns < self.dead_interval_ns:
            return
        self._record(LinkEvent("dead-interval", now, gap_ns), ctx)
        self._dead_marks.append(now)
        self._dead_marks = [
            mark for mark in self._dead_marks if now - mark <= self.flap_window_ns
        ]
        if len(self._dead_marks) >= self.flap_count:
            self._record(LinkEvent("flapping", now, self.flap_window_ns), ctx)
            self._dead_marks.clear()

    def _record(self, event: LinkEvent, ctx: PPEContext | None) -> None:
        self.events.append(event)
        self.counter(event.kind).count()
        if ctx is not None:
            alert = make_udp(
                src_ip=self.exporter_ip,
                dst_ip=self.collector_ip,
                sport=ALERT_PORT,
                dport=ALERT_PORT,
                payload=pack_alert(ctx.device_id, event),
            )
            ctx.emit(alert, Direction.EDGE_TO_LINE)

    # ------------------------------------------------------------------
    def check_liveness(self, now_ns: int) -> bool:
        """Poll path (control plane timer): is the link currently alive?

        Returns False — and records a dead-interval event with no alert
        emission (the CP sends its own) — when silence exceeds the dead
        interval.  A link that never carried traffic reports alive.
        """
        if self._last_arrival_ns is None:
            return True
        gap = now_ns - self._last_arrival_ns
        if gap >= self.dead_interval_ns:
            self._record(LinkEvent("dead-interval", now_ns, gap), None)
            self._last_arrival_ns = now_ns  # avoid duplicate reports
            return False
        return True

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="link flap / microburst / fiber-break detector",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 14}),
                Stage("ts", StageKind.TIMESTAMP, {}),
                Stage("stats", StageKind.COUNTERS, {"counters": 32}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 64},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 14}),
            ],
        )

    def config(self) -> dict:
        return {
            "burst_gap_ns": self.burst_gap_ns,
            "burst_packets": self.burst_packets,
            "dead_interval_ns": self.dead_interval_ns,
            "flap_count": self.flap_count,
            "flap_window_ns": self.flap_window_ns,
            "collector_ip": self.collector_ip,
            "exporter_ip": self.exporter_ip,
        }
