"""Traffic generators: CBR, Poisson, and IMIX sources.

Sources push packets into a :class:`~repro.sim.link.Port` on a schedule.
Rates are specified as *wire* rates (including preamble/FCS/IFG), so a
``rate_bps=10e9`` CBR source with 60-byte frames reproduces the 14.88 Mpps
worst case a 10GbE line-rate test implies.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Callable, Iterator, Sequence

from ..errors import ConfigError
from ..packet import Packet, make_udp
from ..sim.engine import Simulator
from ..sim.link import Port
from ..sim.mac import frame_wire_bytes
from ..sim.stats import Counter

PacketFactory = Callable[[int, int], Packet]
"""Builds packet ``i`` with the requested frame length (no FCS)."""

# Standard simple IMIX: 7×64 B, 4×576 B, 1×1518 B (sizes incl. FCS).
IMIX_MIX: tuple[tuple[int, int], ...] = ((60, 7), (572, 4), (1514, 1))


def default_factory(
    src_ip: str = "10.0.0.1",
    dst_ip: str = "10.0.0.2",
    sport: int = 10_000,
    dport: int = 20_000,
) -> PacketFactory:
    """UDP packets of the requested size from a fixed flow."""

    def build(index: int, frame_len: int) -> Packet:
        payload_len = max(0, frame_len - 14 - 20 - 8)
        return make_udp(
            src_ip=src_ip,
            dst_ip=dst_ip,
            sport=sport,
            dport=dport,
            payload=bytes(payload_len),
        )

    return build


class TrafficSource:
    """Base: sends packets from ``start`` until ``count`` or ``stop``.

    ``burst`` > 1 is a simulation-speed knob: each scheduled tick emits up
    to that many frames as future-dated reservations (``Port.send_at``).
    Departure times are accumulated with the same float additions the
    per-frame tick chain performs, so the emitted traffic — timestamps,
    RNG draw order, drop decisions — is bit-identical to ``burst=1``; only
    the event count shrinks.

    ``send_failures`` counts every frame the port refused at reservation:
    no link, or a tail drop — including the tail drop of a future-dated
    send, which the port judges at the frame's arrival time.
    """

    def __init__(
        self,
        sim: Simulator,
        port: Port,
        factory: PacketFactory | None = None,
        count: int | None = None,
        start: float = 0.0,
        stop: float | None = None,
        name: str = "source",
        burst: int = 1,
    ) -> None:
        if burst < 1:
            raise ConfigError(f"burst must be >= 1, got {burst}")
        self.sim = sim
        self.port = port
        self.factory = factory if factory is not None else default_factory()
        self.count = count
        self.stop = stop
        self.name = name
        self.burst = burst
        self.sent = Counter(f"{name}.sent")
        self.send_failures = Counter(f"{name}.send_failures")
        self._index = 0
        self._frame_iter = self._frames()
        sim.schedule_at(max(start, sim.now), self._tick)

    def _frames(self) -> Iterator[tuple[int, float]]:
        """Each frame's ``(length, gap after it)``, drawn in emission order."""
        raise NotImplementedError

    def _tick(self) -> None:
        t = self.sim.now
        port = self.port
        # Emission is the hottest loop in traffic-heavy simulations.
        send = port.send_at
        frames = self._frame_iter
        factory = self.factory
        sent = self.sent
        count = self.count
        stop = self.stop
        for _ in range(self.burst):
            if (count is not None and self._index >= count) or (
                stop is not None and t >= stop
            ):
                return
            frame_len, gap = next(frames)
            packet = factory(self._index, frame_len)
            self._index += 1
            size = packet.wire_len
            if send(packet, t, size):
                sent.packets += 1
                sent.bytes += size
            else:
                self.send_failures.count(size)
            t = t + gap
        self.sim.schedule_at(t, self._tick)


class CbrSource(TrafficSource):
    """Constant bit rate: fixed frame size, fixed inter-departure time.

    With ``template_burst=True`` (the compiled tier's emission mode) each
    tick builds ONE template packet and hands the whole burst to
    :meth:`~repro.sim.link.Port.send_burst` as a struct-of-arrays vector
    of departure times.  Departure timestamps come from the same chained
    float additions as the per-frame tick, so timing is bit-identical;
    the factory is called once per burst, so this mode requires a factory
    whose output does not depend on the packet index.
    """

    def __init__(
        self,
        sim: Simulator,
        port: Port,
        rate_bps: float,
        frame_len: int = 1514,
        template_burst: bool = False,
        **kwargs,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigError("CBR rate must be positive")
        self.rate_bps = rate_bps
        self.frame_len = frame_len
        self.template_burst = template_burst
        super().__init__(sim, port, **kwargs)

    def _frames(self) -> Iterator[tuple[int, float]]:
        # Constant per flow: derived once, not once per frame.
        return repeat(
            (self.frame_len, frame_wire_bytes(self.frame_len) * 8 / self.rate_bps)
        )

    def _tick(self) -> None:
        if not self.template_burst:
            super()._tick()
            return
        import numpy as np

        t = self.sim.now
        if self.stop is not None and t >= self.stop:
            return
        n = self.burst
        if self.count is not None:
            remaining = self.count - self._index
            if remaining <= 0:
                return
            if remaining < n:
                n = remaining
        _, interval = next(self._frame_iter)
        # np.add.accumulate is a sequential left fold: entry i reproduces
        # the scalar ``t = t + interval`` chain bit for bit.  The extra
        # trailing entry is the next tick time.
        chain = np.empty(n + 1)
        chain[0] = t
        chain[1:] = interval
        times = np.add.accumulate(chain)
        limit = n
        if self.stop is not None and float(times[n - 1]) >= self.stop:
            limit = int(np.searchsorted(times[:n], self.stop, side="left"))
            if limit == 0:
                return
        template = self.factory(self._index, self.frame_len)
        size = template.wire_len
        self._index += limit
        admitted = self.port.send_burst(template, size, times[:limit])
        self.sent.packets += admitted
        self.sent.bytes += admitted * size
        failed = limit - admitted
        if failed:
            self.send_failures.packets += failed
            self.send_failures.bytes += failed * size
        # The per-frame tick only re-arms after a full burst; a count- or
        # stop-truncated burst is the final one.
        if limit == self.burst and (
            self.count is None or self._index < self.count
        ):
            self.sim.schedule_at(float(times[n]), self._tick)


class PoissonSource(TrafficSource):
    """Poisson arrivals at a target average wire rate (seeded RNG)."""

    def __init__(
        self,
        sim: Simulator,
        port: Port,
        rate_bps: float,
        frame_len: int = 1514,
        seed: int = 1,
        **kwargs,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigError("Poisson rate must be positive")
        self.rate_bps = rate_bps
        self.frame_len = frame_len
        self._rng = random.Random(seed)
        super().__init__(sim, port, **kwargs)

    def _frames(self) -> Iterator[tuple[int, float]]:
        mean = frame_wire_bytes(self.frame_len) * 8 / self.rate_bps
        while True:
            yield self.frame_len, self._rng.expovariate(1.0 / mean)


class ImixSource(TrafficSource):
    """IMIX frame-size mix at a target aggregate wire rate."""

    def __init__(
        self,
        sim: Simulator,
        port: Port,
        rate_bps: float,
        mix: Sequence[tuple[int, int]] = IMIX_MIX,
        seed: int = 1,
        **kwargs,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigError("IMIX rate must be positive")
        if not mix or any(weight <= 0 for _, weight in mix):
            raise ConfigError("IMIX mix needs positive weights")
        self.rate_bps = rate_bps
        self.mix = tuple(mix)
        self._rng = random.Random(seed)
        self._sizes = [size for size, _ in self.mix]
        self._weights = [weight for _, weight in self.mix]
        super().__init__(sim, port, **kwargs)

    def _frames(self) -> Iterator[tuple[int, float]]:
        while True:
            frame_len = self._rng.choices(self._sizes, weights=self._weights, k=1)[0]
            yield frame_len, frame_wire_bytes(frame_len) * 8 / self.rate_bps
