"""Measurement primitives: counters, rate meters, histograms.

These are the observability substrate both for the simulated devices (PPE
counters exposed through the control plane) and for the benchmark harnesses
(throughput/latency series that regenerate the paper's numbers).
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ..errors import ConfigError


class Counter:
    """A named monotonically increasing packet/byte counter pair."""

    __slots__ = ("name", "packets", "bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.packets = 0
        self.bytes = 0

    def count(self, num_bytes: int = 0) -> None:
        """Record one packet of ``num_bytes`` bytes."""
        self.packets += 1
        self.bytes += num_bytes

    def reset(self) -> None:
        self.packets = 0
        self.bytes = 0

    def metric_values(self) -> dict[str, int]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {"packets": self.packets, "bytes": self.bytes}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}: {self.packets} pkts / {self.bytes} B)"


class RunningStats:
    """Streaming mean/variance/min/max (Welford's algorithm)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    def metric_values(self) -> dict[str, float]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class RateMeter:
    """Measures achieved bit/packet rate over the observed interval.

    ``observe`` records a packet at a timestamp; the meter tracks first/last
    timestamps and totals.  ``bits_per_second`` uses the span between first
    and last observation (optionally overridden with an explicit window),
    matching how line-rate tests on real traffic generators report goodput.

    A flow with a single observation has a zero span even though bytes
    were delivered; ``min_window_s`` (constructor default or per-call
    override) supplies the fallback window so such flows report a finite
    rate instead of 0.0.
    """

    def __init__(self, name: str = "rate", min_window_s: float | None = None) -> None:
        self.name = name
        self.min_window_s = min_window_s
        self.total_packets = 0
        self.total_bytes = 0
        self.first_ts: float | None = None
        self.last_ts: float | None = None

    def observe(self, timestamp: float, num_bytes: int) -> None:
        if self.first_ts is None:
            self.first_ts = timestamp
        self.last_ts = timestamp
        self.total_packets += 1
        self.total_bytes += num_bytes

    def observe_bulk(
        self, first_ts: float, last_ts: float, packets: int, num_bytes: int
    ) -> None:
        """Record ``packets`` uniform observations spanning an interval.

        O(1) equivalent of calling :meth:`observe` once per packet with
        ``num_bytes // packets`` each — the compiled burst lane's meter
        update.  ``num_bytes`` is the total across the burst.
        """
        if packets <= 0:
            return
        if self.first_ts is None:
            self.first_ts = first_ts
        self.last_ts = last_ts
        self.total_packets += packets
        self.total_bytes += num_bytes

    @property
    def span(self) -> float:
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return self.last_ts - self.first_ts

    def _effective_span(
        self, window: float | None, min_window_s: float | None
    ) -> float:
        span = window if window is not None else self.span
        if span <= 0:
            fallback = (
                min_window_s if min_window_s is not None else self.min_window_s
            )
            # Only fall back when something was actually observed: an
            # untouched meter still reads 0, never a phantom rate.
            if fallback is not None and fallback > 0 and self.total_packets:
                return fallback
            return 0.0
        return span

    def bits_per_second(
        self, window: float | None = None, min_window_s: float | None = None
    ) -> float:
        span = self._effective_span(window, min_window_s)
        if span <= 0:
            return 0.0
        return self.total_bytes * 8 / span

    def packets_per_second(
        self, window: float | None = None, min_window_s: float | None = None
    ) -> float:
        span = self._effective_span(window, min_window_s)
        if span <= 0:
            return 0.0
        return self.total_packets / span

    def metric_values(self) -> dict[str, float]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {
            "packets": self.total_packets,
            "bytes": self.total_bytes,
            "span_s": self.span,
            "bits_per_second": self.bits_per_second(),
        }


class Histogram:
    """Fixed-bucket histogram with percentile queries.

    Buckets are defined by ascending upper bounds; values above the last
    bound land in an overflow bucket.  Percentiles are answered at bucket
    granularity (upper-bound estimate), which is what hardware telemetry
    with power-of-two latency bins reports.
    """

    def __init__(self, bounds: list[float]) -> None:
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigError("histogram bounds must be strictly ascending")
        self.bounds = list(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0

    @classmethod
    def exponential(cls, start: float, factor: float, count: int) -> "Histogram":
        """Power-law bucket bounds: start, start*factor, ..."""
        if start <= 0 or factor <= 1 or count < 1:
            raise ConfigError("invalid exponential histogram parameters")
        return cls([start * factor**i for i in range(count)])

    def add(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += 1

    def percentile(self, pct: float) -> float:
        """Upper-bound estimate of the ``pct``-th percentile (0 < pct ≤ 100)."""
        if not 0 < pct <= 100:
            raise ConfigError("percentile must be in (0, 100]")
        if self.total == 0:
            return 0.0
        threshold = math.ceil(self.total * pct / 100)
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= threshold:
                return self.bounds[i] if i < len(self.bounds) else math.inf
        return math.inf  # pragma: no cover - unreachable

    def metric_values(self) -> dict[str, float]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {
            "total": self.total,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }
