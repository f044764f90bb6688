"""In-line rate limiting: per-source token buckets (§3, Nimble-style).

"Inline security use cases may also include … rate-limiting traffic from
selected sources."  Each configured source prefix gets a token bucket
refilled at its committed rate; conforming packets pass, excess traffic is
dropped at the optical edge before it consumes any downstream capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import ip_to_int
from ..core.ppe import PPEApplication, PPEContext, Verdict
from ..core.tables import LPMTable
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..packet import Packet


@dataclass
class TokenBucket:
    """A token bucket metered in bytes.

    ``rate_bps`` is the committed information rate; ``burst_bytes`` the
    bucket depth.  Refill is computed lazily from elapsed time, exactly as
    a hardware meter does with a timestamp delta.
    """

    rate_bps: float
    burst_bytes: int
    tokens: float = 0.0
    last_refill_ns: int = 0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0 or self.burst_bytes <= 0:
            raise ConfigError("token bucket needs positive rate and burst")
        self.tokens = float(self.burst_bytes)

    def conforms(self, num_bytes: int, now_ns: int) -> bool:
        """Refill, then try to debit ``num_bytes``; True when conforming."""
        elapsed_s = max(0, now_ns - self.last_refill_ns) / 1e9
        self.tokens = min(
            float(self.burst_bytes), self.tokens + elapsed_s * self.rate_bps / 8
        )
        self.last_refill_ns = now_ns
        if self.tokens >= num_bytes:
            self.tokens -= num_bytes
            return True
        return False


class RateLimiter(PPEApplication):
    """Per-source-prefix policing."""

    name = "ratelimiter"

    def __init__(self, capacity: int = 1024, default_permit: bool = True) -> None:
        super().__init__()
        self.capacity = capacity
        self.default_permit = default_permit
        self.meters: LPMTable[TokenBucket] = LPMTable(
            "meters", capacity, key_bits=32
        )
        self.tables.register(self.meters)

    def add_limit(
        self, prefix: str, prefix_len: int, rate_bps: float, burst_bytes: int
    ) -> None:
        """Police ``prefix/len`` to ``rate_bps`` with the given burst."""
        self.meters.insert(
            ip_to_int(prefix),
            prefix_len,
            TokenBucket(rate_bps=rate_bps, burst_bytes=burst_bytes),
        )

    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        ip = packet.ipv4
        if ip is None:
            return Verdict.PASS if self.default_permit else Verdict.DROP
        bucket = self.meters.lookup(ip.src)
        if bucket is None:
            self.count("unmetered", packet)
            return Verdict.PASS if self.default_permit else Verdict.DROP
        if bucket.conforms(packet.wire_len, ctx.time_ns):
            self.count("conformed", packet)
            return Verdict.PASS
        self.count("policed", packet)
        return Verdict.DROP

    def flow_key(self, packet: Packet) -> None:
        """Never cacheable: token buckets are time-varying state.

        The same flow conforms now and is policed a microsecond later, so
        no :class:`~repro.core.flowcache.FlowRecipe` can replay the
        decision.  Explicit override to document the opt-out.
        """
        return None

    def burst_plan(self, template: Packet, direction):
        """Sequential meter replay for the compiled engine's meter lane.

        A cached :class:`~repro.core.flowcache.FlowRecipe` can never
        replay a policing decision (the same flow conforms now and is
        policed a microsecond later), but the decision *is* a pure
        function of the arrival times and sizes the engine already
        knows.  The returned plan debits the bucket once per frame in
        arrival order — bit-identical to per-frame :meth:`process` —
        and hands back contiguous verdict runs for aggregate delivery.
        """
        ip = template.ipv4
        permit = Verdict.PASS if self.default_permit else Verdict.DROP
        if ip is None:

            def plan_non_ip(times_ns: list[int], size: int):
                return [(permit, len(times_ns))]

            return plan_non_ip
        src = ip.src

        def plan(times_ns: list[int], size: int):
            bucket = self.meters.lookup(src)
            n = len(times_ns)
            if bucket is None:
                counter = self.counter("unmetered")
                counter.packets += n
                counter.bytes += n * size
                return [(permit, n)]
            conformed = self.counter("conformed")
            policed = self.counter("policed")
            runs: list[tuple[Verdict, int]] = []
            for now_ns in times_ns:
                if bucket.conforms(size, now_ns):
                    verdict = Verdict.PASS
                    conformed.packets += 1
                    conformed.bytes += size
                else:
                    verdict = Verdict.DROP
                    policed.packets += 1
                    policed.bytes += size
                if runs and runs[-1][0] is verdict:
                    runs[-1] = (verdict, runs[-1][1] + 1)
                else:
                    runs.append((verdict, 1))
            return runs

        return plan

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name=self.name,
            description="per-source token-bucket policer",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 34}),
                Stage(
                    "classify",
                    StageKind.LPM_TABLE,
                    {"entries": self.capacity, "key_bits": 32, "value_bits": 16},
                ),
                Stage("meter", StageKind.METERS, {"meters": self.capacity}),
                Stage("ts", StageKind.TIMESTAMP, {}),
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {"depth_bytes": 2 * 1518, "metadata_bits": 128},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 34}),
            ],
        )

    def config(self) -> dict:
        return {"capacity": self.capacity, "default_permit": self.default_permit}
