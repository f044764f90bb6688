"""Link impairments: loss, jitter, corruption, and flapping for fault-path
testing.

The link-health use case (§3) only matters on imperfect links; this
module provides them.  An :class:`ImpairedPort` behaves like a normal
:class:`~repro.sim.link.Port` but applies seeded random loss, jitter,
payload corruption, and duplication to *received* frames, and can be
"flapped" (forced dark) for intervals — the substrate for exercising
fiber-break and flap detection end to end.

On top of the steady-state probabilities, every impairment can also be
applied as a *burst*: a bounded window of elevated loss / bit errors /
corruption / duplication, which is what the fault-injection framework
(:mod:`repro.faults`) schedules from a :class:`~repro.faults.FaultPlan`.

:class:`LossyWire` packages two impaired endpoints into a bump-in-the-wire
segment that can be spliced between any two existing ports — e.g. between
a fleet controller and a switch — impairing both directions without
touching either device.
"""

from __future__ import annotations

import random

from ..errors import ConfigError
from ..packet import Packet
from ..sim.engine import Simulator
from ..sim.link import PacketHandler, Port
from ..sim.stats import Counter

# Extra delay separating a duplicated frame from its original when the
# port has no configured jitter (a retransmit-ish gap, not zero).
DUPLICATE_GAP_S = 1e-6


class _Burst:
    """A bounded window of elevated impairment probability."""

    __slots__ = ("until", "probability")

    def __init__(self) -> None:
        self.until = -1.0
        self.probability = 0.0

    def raise_to(self, now: float, duration_s: float, probability: float) -> None:
        if duration_s <= 0:
            raise ConfigError("burst duration must be positive")
        if not 0.0 <= probability <= 1.0:
            raise ConfigError("burst probability must be in [0, 1]")
        self.until = max(self.until, now + duration_s)
        self.probability = max(self.probability, probability)

    def effective(self, now: float, base: float) -> float:
        if now < self.until and self.probability > base:
            return self.probability
        return base


class ImpairedPort(Port):
    """A port whose receive side models an imperfect link.

    * ``loss_probability`` — i.i.d. drop chance per frame.
    * ``jitter_s`` — uniform extra delay in ``[0, jitter_s]`` per frame.
    * ``corrupt_probability`` — chance of flipping a payload byte (mgmt
      frames then fail HMAC authentication; data frames carry bad bytes).
    * ``duplicate_probability`` — chance a frame is delivered twice (the
      duplicate trails the original; replay protection sees it).
    * :meth:`flap` — go dark for a duration (all frames dropped), as a
      fiber disconnect/reconnect does.
    * :meth:`loss_burst` / :meth:`corrupt_burst` / :meth:`duplicate_burst`
      — temporary windows of elevated probability for fault injection.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float = 10e9,
        loss_probability: float = 0.0,
        jitter_s: float = 0.0,
        corrupt_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        seed: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(sim, name, rate_bps=rate_bps, **kwargs)
        # Impairments act per frame in _deliver, so even with no handler
        # attached this is never a counting sink for batched delivery.
        self._batched_rx = False
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigError("loss probability must be in [0, 1)")
        if jitter_s < 0:
            raise ConfigError("jitter must be non-negative")
        if not 0.0 <= corrupt_probability < 1.0:
            raise ConfigError("corrupt probability must be in [0, 1)")
        if not 0.0 <= duplicate_probability < 1.0:
            raise ConfigError("duplicate probability must be in [0, 1)")
        self.loss_probability = loss_probability
        self.jitter_s = jitter_s
        self.corrupt_probability = corrupt_probability
        self.duplicate_probability = duplicate_probability
        self._rng = random.Random(seed)
        self._dark_until = -1.0
        self._loss_burst = _Burst()
        self._corrupt_burst = _Burst()
        self._duplicate_burst = _Burst()
        self.impairment_drops = Counter(f"{name}.impairment_drops")
        self.corrupted = Counter(f"{name}.corrupted")
        self.duplicated = Counter(f"{name}.duplicated")
        self.flaps = 0

    def flap(self, duration_s: float) -> None:
        """Take the link dark for ``duration_s`` starting now."""
        if duration_s <= 0:
            raise ConfigError("flap duration must be positive")
        self._dark_until = max(self._dark_until, self.sim.now + duration_s)
        self.flaps += 1

    @property
    def is_dark(self) -> bool:
        return self.sim.now < self._dark_until

    def attach_batch(self, handler: PacketHandler) -> None:
        """Attach per frame: a flush would bypass the impairments."""
        self.attach(handler)

    # ------------------------------------------------------------------
    # Fault-injection windows
    # ------------------------------------------------------------------
    def loss_burst(self, duration_s: float, probability: float = 1.0) -> None:
        """Elevate the loss probability for a bounded window."""
        self._loss_burst.raise_to(self.sim.now, duration_s, probability)

    def corrupt_burst(self, duration_s: float, probability: float = 1.0) -> None:
        """Elevate the corruption probability for a bounded window."""
        self._corrupt_burst.raise_to(self.sim.now, duration_s, probability)

    def duplicate_burst(self, duration_s: float, probability: float = 1.0) -> None:
        """Elevate the duplication probability for a bounded window."""
        self._duplicate_burst.raise_to(self.sim.now, duration_s, probability)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _deliver(self, packet: Packet, size: int) -> None:
        now = self.sim.now
        rng = self._rng
        loss = self._loss_burst.effective(now, self.loss_probability)
        if now < self._dark_until or rng.random() < loss:
            self.impairment_drops.count(size)
            return
        dup = self._duplicate_burst.effective(now, self.duplicate_probability)
        jitter = self.jitter_s
        if dup and rng.random() < dup:
            self.duplicated.count(size)
            gap = jitter if jitter > 0 else DUPLICATE_GAP_S
            self.sim.schedule(
                rng.uniform(0.0, gap) + gap, self._finish_rx, packet.copy(), size
            )
        if jitter > 0:
            self.sim.schedule(rng.uniform(0.0, jitter), self._finish_rx, packet, size)
            return
        self._finish_rx(packet, size)

    def _finish_rx(self, packet: Packet, size: int) -> None:
        # Darkness is re-checked at delivery time: a frame that arrived
        # before a flap must not surface inside the dark window its jitter
        # (or duplication gap) pushed it into.
        now = self.sim.now
        if now < self._dark_until:
            self.impairment_drops.count(size)
            return
        corrupt = self._corrupt_burst.effective(now, self.corrupt_probability)
        if corrupt and self._rng.random() < corrupt:
            # One flipped payload byte: the frame's length does not change.
            self.corrupted.count(size)
            packet = self._corrupt(packet)
        super()._deliver(packet, size)

    def _corrupt(self, packet: Packet) -> Packet:
        """Flip one payload byte (a bit error the FCS failed to catch)."""
        mutated = packet.copy()
        if mutated.payload:
            index = self._rng.randrange(len(mutated.payload))
            flipped = mutated.payload[index] ^ (1 << self._rng.randrange(8))
            mutated.payload = (
                mutated.payload[:index]
                + bytes([flipped])
                + mutated.payload[index + 1 :]
            )
        return mutated


class LossyWire:
    """A two-ended impaired segment spliced between two existing ports.

    ``wire.a`` and ``wire.b`` are :class:`ImpairedPort` endpoints; frames
    received on one endpoint are re-sent out the other, so both directions
    traverse the configured impairments.  Connect ``wire.a`` to one device
    and ``wire.b`` to the other::

        wire = LossyWire(sim, "mgmt", loss_probability=0.2, seed=9)
        controller.port.connect(wire.a)
        wire.b.connect(switch.external_port(0))
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float = 1e9,
        loss_probability: float = 0.0,
        jitter_s: float = 0.0,
        corrupt_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        seed: int = 1,
    ) -> None:
        self.sim = sim
        self.name = name
        self.a = ImpairedPort(
            sim,
            f"{name}.a",
            rate_bps=rate_bps,
            loss_probability=loss_probability,
            jitter_s=jitter_s,
            corrupt_probability=corrupt_probability,
            duplicate_probability=duplicate_probability,
            seed=seed,
        )
        self.b = ImpairedPort(
            sim,
            f"{name}.b",
            rate_bps=rate_bps,
            loss_probability=loss_probability,
            jitter_s=jitter_s,
            corrupt_probability=corrupt_probability,
            duplicate_probability=duplicate_probability,
            seed=seed + 1,
        )
        self.a.attach(lambda port, packet, size, when: self.b.send(packet, size))
        self.b.attach(lambda port, packet, size, when: self.a.send(packet, size))

    @property
    def endpoints(self) -> tuple[ImpairedPort, ImpairedPort]:
        return (self.a, self.b)

    def flap(self, duration_s: float) -> None:
        """Take both directions dark for ``duration_s``."""
        for endpoint in self.endpoints:
            endpoint.flap(duration_s)

    def loss_burst(self, duration_s: float, probability: float = 1.0) -> None:
        for endpoint in self.endpoints:
            endpoint.loss_burst(duration_s, probability)

    def corrupt_burst(self, duration_s: float, probability: float = 1.0) -> None:
        for endpoint in self.endpoints:
            endpoint.corrupt_burst(duration_s, probability)

    def duplicate_burst(self, duration_s: float, probability: float = 1.0) -> None:
        for endpoint in self.endpoints:
            endpoint.duplicate_burst(duration_s, probability)

    def metric_values(self) -> dict[str, int]:
        """Flat :class:`~repro.obs.registry.MetricSource` view, both ends summed."""
        return {
            "drops": self.a.impairment_drops.packets + self.b.impairment_drops.packets,
            "corrupted": self.a.corrupted.packets + self.b.corrupted.packets,
            "duplicated": self.a.duplicated.packets + self.b.duplicated.packets,
            "flaps": self.a.flaps + self.b.flaps,
        }
