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
from ..sim.engine import Simulator, Window
from ..sim.link import PacketHandler, Port
from ..sim.stats import Counter

# Extra delay separating a duplicated frame from its original when the
# port has no configured jitter (a retransmit-ish gap, not zero).
DUPLICATE_GAP_S = 1e-6


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
        # Judged at the frame's time: the flap's, and one per burst kind.
        self.dark = Window()
        self._raised_loss = Window()
        self._raised_corrupt = Window()
        self._raised_duplicate = Window()
        self.impairment_drops = Counter(f"{name}.impairment_drops")
        self.corrupted = Counter(f"{name}.corrupted")
        self.duplicated = Counter(f"{name}.duplicated")
        self.flaps = 0

    def flap(self, duration_s: float) -> None:
        """Take the link dark for ``duration_s`` starting now."""
        if duration_s <= 0:
            raise ConfigError("flap duration must be positive")
        self.dark.open(self.sim.now, duration_s)
        self.flaps += 1

    def attach_batch(self, handler: PacketHandler) -> None:
        """Attach per frame: a flush would bypass the impairments."""
        self.attach(handler)

    # ------------------------------------------------------------------
    # Fault-injection windows
    # ------------------------------------------------------------------
    def loss_burst(self, duration_s: float, probability: float = 1.0) -> None:
        """Elevate the loss probability for a bounded window."""
        self._raise(self._raised_loss, duration_s, probability)

    def corrupt_burst(self, duration_s: float, probability: float = 1.0) -> None:
        """Elevate the corruption probability for a bounded window."""
        self._raise(self._raised_corrupt, duration_s, probability)

    def duplicate_burst(self, duration_s: float, probability: float = 1.0) -> None:
        """Elevate the duplication probability for a bounded window."""
        self._raise(self._raised_duplicate, duration_s, probability)

    def _raise(self, window: Window, duration_s: float, probability: float) -> None:
        """Burst from now; overlapping bursts merge at the higher probability."""
        if duration_s <= 0:
            raise ConfigError("burst duration must be positive")
        if not 0.0 <= probability <= 1.0:
            raise ConfigError("burst probability must be in [0, 1]")
        window.open(self.sim.now, duration_s, probability)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _deliver(self, packet: Packet, size: int, when: float) -> None:
        rng = self._rng
        loss = self.loss_probability
        raised = self._raised_loss
        if raised.start <= when < raised.until and raised.level > loss:
            loss = raised.level
        if self.dark.start <= when < self.dark.until or rng.random() < loss:
            self.impairment_drops.count(size)
            return
        dup = self.duplicate_probability
        raised = self._raised_duplicate
        if raised.start <= when < raised.until and raised.level > dup:
            dup = raised.level
        jitter = self.jitter_s
        if dup and rng.random() < dup:
            self.duplicated.count(size)
            gap = jitter if jitter > 0 else DUPLICATE_GAP_S
            at = when + (rng.uniform(0.0, gap) + gap)
            self.sim.schedule_at(at, self._finish_rx, packet.copy(), size, at)
        if jitter > 0:
            at = when + rng.uniform(0.0, jitter)
            self.sim.schedule_at(at, self._finish_rx, packet, size, at)
            return
        self._finish_rx(packet, size, when)

    def _finish_rx(self, packet: Packet, size: int, when: float) -> None:
        # Darkness is re-checked at delivery time: a frame that arrived
        # before a flap must not surface inside the dark window its jitter
        # (or duplication gap) pushed it into.
        if self.dark.start <= when < self.dark.until:
            self.impairment_drops.count(size)
            return
        corrupt = self.corrupt_probability
        raised = self._raised_corrupt
        if raised.start <= when < raised.until and raised.level > corrupt:
            corrupt = raised.level
        if corrupt and self._rng.random() < corrupt:
            # One flipped payload byte: the frame's length does not change.
            self.corrupted.count(size)
            packet = self._corrupt(packet)
        super()._deliver(packet, size, when)

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
        self.a.attach(lambda port, packet, size, when: self.b.send_at(packet, when, size))
        self.b.attach(lambda port, packet, size, when: self.a.send_at(packet, when, size))

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
