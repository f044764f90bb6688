"""Ports and links: the packet-transport fabric of the simulator.

A :class:`Port` is one direction-agnostic attachment point owned by a device
(host NIC, switch port, FlexSFP interface).  Connecting two ports creates a
full-duplex link; each direction models store-and-forward transmission with
a bounded output FIFO (tail drop), per-frame serialization at the port rate,
and constant propagation delay.

A receiver is handed each frame as ``handler(port, packet, size, when)``:
the frame, its wire size and its wire arrival time.  The port holds no
per-frame state for the handler to read back.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from ..errors import SimulationError
from ..packet import Packet
from .engine import EventHandle, ServiceTimeline, Simulator
from .mac import serialization_time
from .stats import Counter

if TYPE_CHECKING:  # pragma: no cover - type-only import
    import numpy as np

PacketHandler = Callable[["Port", Packet, int, float], None]
# Compiled-burst receive: one call per burst with the shared template, the
# wire size, and the struct-of-arrays vector of delivery times.
BurstHandler = Callable[["Port", Packet, int, "np.ndarray"], None]

# Default propagation: 10 m of fiber at ~5 ns/m.
DEFAULT_PROPAGATION_S = 50e-9
DEFAULT_QUEUE_BYTES = 512 * 1024


class Port:
    """A full-duplex network port with an egress FIFO.

    Every send reserves at submit: the frame is admitted onto an analytic
    :class:`~repro.sim.engine.ServiceTimeline` — tail drop judged at its
    arrival, back-to-back serialization at ``rate_bps``, the same float
    arithmetic an event-per-frame FIFO would perform — and its delivery
    time (serialization finish plus the link's propagation delay) is known
    on the spot.  No event marks the end of a serialization.

    How the frame then reaches the peer is the *receiver's* choice.  A
    peer that takes *batched delivery* gets reservations — single frames
    and whole template bursts alike, in arrival order — queued and handed
    over in one flush event scheduled at the first pending frame's
    delivery time.  Later frames of the flush arrive *early* in event time
    but carry their exact wire arrival as ``when``, so a receiver that
    times frames by ``when`` (a compiled-tier FlexSFP module, a meter)
    reproduces the event-per-frame arithmetic bit for bit.  A port takes
    batched delivery when its handler came through :meth:`attach_batch`,
    or when it has no handler at all (a counting sink); a handler given
    to :meth:`attach` gets one deliver event per frame, so ``when`` is
    also ``sim.now``.  Those frames wait in the sending port, not in the
    event heap: an in-flight FIFO of which only the head is armed, each
    frame firing with the ``seq`` it took at reservation, so the events
    run in the order one scheduled event per frame would give.

    A reservation dies with its link: :meth:`disconnect` forgets both
    directions' queued frames, and a delivery already in flight on the old
    link fires as a no-op (never into a peer connected since).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float = 10e9,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.queue_bytes = queue_bytes
        # Reservations awaiting the next flush toward a batched peer, in
        # delivery order: (packet, size, when) per frame and (template,
        # size, whens) per burst, ``whens`` a float64 vector.
        self._pending_rx: list[tuple[Packet, int, "float | np.ndarray"]] = []
        # Frames in flight toward a per-frame peer, in reservation order:
        # (fire, seq, packet, size), and the one event that delivers the
        # head.  One pair per link: a disconnect starts a new one.
        self._inflight: deque[tuple[float, int, Packet, int]]
        self._inflight_event: EventHandle
        self._start_inflight()
        # Optional bracketing callbacks a batched receiver may install: a
        # sender's flush calls begin before and end after handing over the
        # whole pending run, letting the receiver defer per-frame work
        # (e.g. PPE group-event arming) to one commit per flush.
        self.rx_flush_begin: Callable[[], None] | None = None
        self.rx_flush_end: Callable[[], None] | None = None
        self._handler: PacketHandler | None = None
        self._burst_handler: BurstHandler | None = None
        self._batched_rx = True  # no handler yet: a counting sink
        self._peer: Port | None = None
        self._propagation_s = DEFAULT_PROPAGATION_S
        # Link generation: a flush captures it when armed and fires as a
        # no-op once a disconnect has moved it on.
        self._link = 0
        self._timeline = ServiceTimeline()
        self.tx = Counter(f"{name}.tx")
        self.rx = Counter(f"{name}.rx")
        self.drops = Counter(f"{name}.drops")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, handler: PacketHandler) -> None:
        """Register the receive handler, one deliver event per frame.

        ``handler(port, packet, size, when)`` runs as the frame's own
        event.  Of :meth:`attach` and :meth:`attach_batch`, the last call
        wins.
        """
        self._handler = handler
        self._batched_rx = False

    def attach_batch(self, handler: PacketHandler) -> None:
        """Register the receive handler, with batched delivery.

        The same handler as for :meth:`attach`, but a sender's flush hands
        every frame due in it over at once, each with its exact wire
        arrival as ``when`` (which may lie ahead of ``sim.now``).  Of
        :meth:`attach` and :meth:`attach_batch`, the last call wins.
        """
        self._handler = handler
        self._batched_rx = True

    def attach_burst(self, handler: BurstHandler) -> None:
        """Register a compiled-burst receive callback.

        When set, a sender's flush hands each pending burst over in one
        call — ``handler(port, template, size, whens)`` — where ``whens``
        is the float64 vector of exact (virtual) delivery times.  The
        template is shared, not copied: the receiver must not mutate it.
        Without one a burst reaches the receive handler as per-frame
        copies.
        """
        self._burst_handler = handler

    def connect(self, peer: "Port", propagation_s: float = DEFAULT_PROPAGATION_S) -> None:
        """Create a full-duplex link between this port and ``peer``."""
        if self._peer is not None or peer._peer is not None:
            raise SimulationError(
                f"port already connected: {self.name} or {peer.name}"
            )
        self._peer = peer
        peer._peer = self
        self._propagation_s = propagation_s
        peer._propagation_s = propagation_s

    def disconnect(self) -> None:
        """Tear down the link; frames queued or in flight either way are lost."""
        for port in (self, self._peer):
            if port is not None:
                port._peer = None
                port._link += 1
                port._pending_rx = []
                # The old link's frames still fire, as no-ops, from the
                # FIFO their armed event holds; the new link starts its own.
                port._start_inflight()
                port._timeline.reset()

    @property
    def connected(self) -> bool:
        return self._peer is not None

    @property
    def peer(self) -> "Port | None":
        return self._peer

    @property
    def queue_depth_bytes(self) -> int:
        """Bytes currently waiting in the egress FIFO."""
        self._timeline.drain(self.sim.now)
        return self._timeline.pending_bytes

    @property
    def queue_depth_packets(self) -> int:
        """Frames currently waiting in the egress FIFO."""
        self._timeline.drain(self.sim.now)
        return self._timeline.pending_frames

    def metric_values(self) -> dict[str, int | float]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        return {
            "tx.packets": self.tx.packets,
            "tx.bytes": self.tx.bytes,
            "rx.packets": self.rx.packets,
            "rx.bytes": self.rx.bytes,
            "drops.packets": self.drops.packets,
            "drops.bytes": self.drops.bytes,
            "queue.bytes": self.queue_depth_bytes,
            "rate_bps": self.rate_bps,
        }

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet, size: int | None = None) -> bool:
        """Enqueue ``packet`` for transmission; False on tail drop.

        ``size`` is the frame's wire size when the caller already holds
        it: whoever built or last mutated a frame computes it once, and
        every hop that forwards the frame unchanged passes on the
        ``size`` its receive handler was handed.
        """
        return self._reserve_tx(packet, self.sim.now, size)

    def send_delayed(self, packet: Packet, delay_s: float, size: int | None = None) -> None:
        """Send ``packet`` after ``delay_s`` (e.g. a transceiver crossing).

        The delay is folded into the reservation: no intermediate event;
        ``size`` as for :meth:`send`.
        """
        self._reserve_tx(packet, self.sim.now + delay_s, size)

    def send_at(self, packet: Packet, at_s: float, size: int | None = None) -> bool:
        """Send ``packet`` at absolute (virtual) time ``at_s``; False on drop.

        The one transmit path: no tx-done event, at most one deliver
        event.  The reservation is made immediately with the given arrival
        time — the foundation of burst traffic emission, of batched PPE
        egress and of a module's constant transceiver latency.  ``at_s``
        may lag ``now`` by up to one batch window (a batch tail replaying
        per-frame deliver times); serialization arithmetic still uses the
        virtual arrival, only the deliver *event* is clamped to now.

        Admission is judged at the frame's *arrival*: that is the state an
        event-per-frame FIFO would see if a deferred ``send`` ran at the
        arrival time.  Whatever the arrival order, delivery times never
        decrease in reservation order on one link: each finish lies past
        ``free_at``, which only grows, and so does ``now``.  That is what
        lets in-flight frames toward a per-frame peer wait in one FIFO.
        A reservation that arrives earlier than one made before it is
        still serialized behind it, which an event-per-frame FIFO fed at
        the arrival times would not do: two tenant slots sharing a line
        port reserve that way, a known gap of the shared egress.
        """
        if size is None:
            size = packet.wire_len
        peer = self._peer
        if peer is None:
            self.drops.count(size)
            return False
        # Inlined serialization_time (hot path): pure-int framing, then
        # the helper's one float operation.
        framed = size + 4
        if framed < 64:
            framed = 64
        finish = self._timeline.admit(
            at_s, size, (framed + 20) * 8 / self.rate_bps, self.queue_bytes
        )
        if finish is None:
            self.drops.count(size)
            return False
        when = finish + self._propagation_s
        # A virtual arrival far enough in the past that the frame
        # "already" left delivers immediately (bounded by the batch
        # window; the reservation arithmetic stays exact regardless).
        now = self.sim.now
        fire = when if when > now else now
        if peer._batched_rx:
            pending = self._pending_rx
            pending.append((packet, size, when))
            if len(pending) == 1:
                self.sim.schedule_at(fire, self._flush_rx, self._link)
            return True
        # The frame takes its seq now; only the FIFO's head is in the heap.
        inflight = self._inflight
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        if not inflight:
            heappush(sim._queue, (fire, seq, self._inflight_event))
        inflight.append((fire, seq, packet, size))
        return True

    # The port's own senders reserve under this name, so a wrapper around
    # the public :meth:`send_at` (a profiler, a test spy) sees each frame
    # once.
    _reserve_tx = send_at

    def _start_inflight(self) -> None:
        """A new link's in-flight FIFO and the event that delivers its head."""
        self._inflight = inflight = deque()
        event = self._inflight_event = EventHandle(self._deliver_head, ())
        event.args = (inflight, event)

    def _deliver_head(self, inflight: deque, event: EventHandle) -> None:
        """Deliver the in-flight FIFO's head and arm the next frame.

        The next frame is armed first, with its own ``fire`` and ``seq``,
        so a reservation the peer's handler makes on this port finds the
        FIFO's head already armed.  ``inflight`` is the FIFO of the link
        the frame left on, ``event`` the one that delivers it: after a
        disconnect its frames fire as no-ops.
        """
        _fire, _seq, packet, size = inflight.popleft()
        if inflight:
            fire, seq, _packet, _size = inflight[0]
            heappush(self.sim._queue, (fire, seq, event))
        if inflight is self._inflight:
            tx = self.tx  # Counter.count, inlined: once per delivered frame
            tx.packets += 1
            tx.bytes += size
            self._peer._deliver(packet, size, self.sim.now)

    def send_burst(
        self, template: Packet, size: int, times: "np.ndarray"
    ) -> int:
        """Transmit a burst of identical frames at the given arrival times.

        ``template`` is the shared frame (never copied on the way to a
        batched peer), ``size`` its wire length and ``times`` a
        non-decreasing float64 vector of virtual arrival times.
        Admission, serialization and delivery timestamps are bit-identical
        to calling :meth:`send_at` once per frame — which is literally
        what happens unless the peer takes batched delivery; there the
        whole burst costs a handful of Python-level operations.
        Returns the number of admitted frames.
        """
        import numpy as np

        times = np.ascontiguousarray(times, dtype=np.float64)
        n = len(times)
        if n == 0:
            return 0
        peer = self._peer
        if peer is None:
            self.drops.packets += n
            self.drops.bytes += n * size
            return 0
        if not peer._batched_rx:
            return sum(
                self._reserve_tx(template.copy(), at, size) for at in times.tolist()
            )
        _admitted, finishes = self._timeline.admit_burst(
            times, size, serialization_time(size, self.rate_bps), self.queue_bytes
        )
        count = len(finishes)
        if count < n:
            self.drops.packets += n - count
            self.drops.bytes += (n - count) * size
            if count == 0:
                return 0
        whens = finishes + self._propagation_s
        pending = self._pending_rx
        pending.append((template, size, whens))
        if len(pending) == 1:
            first = float(whens[0])
            now = self.sim.now
            self.sim.schedule_at(
                first if first > now else now, self._flush_rx, self._link
            )
        return count

    def _flush_rx(self, link: int) -> None:
        """Hand every pending reservation due within the run window over.

        One pass in delivery order: each burst goes to the peer's burst
        handler, each single frame (and, absent a burst handler, each
        per-frame copy of a burst) to its receive handler.  A peer with
        neither is a counting sink.

        A flush of exactly one frame costs what :meth:`_deliver_head` does:
        the counters and one handler call.  The flush fired at or after
        that frame's ``when``, so it is never beyond the run window, and
        the receiver's begin/end bracket only pays off for several frames
        (a burst counts as many).
        """
        if link != self._link:
            return
        pending = self._pending_rx
        self._pending_rx = []
        if len(pending) == 1:
            packet, size, when = pending[0]
            if type(when) is float:
                tx = self.tx
                tx.packets += 1
                tx.bytes += size
                peer = self._peer
                rx = peer.rx
                rx.packets += 1
                rx.bytes += size
                if peer._handler is not None:
                    peer._handler(peer, packet, size, when)
                return
        horizon = self.sim.horizon
        last = pending[-1][2]
        if (last if type(last) is float else last[-1]) > horizon:
            # Frames due beyond the current run window stay pending (the
            # event-per-frame execution would not have delivered them); a
            # later run resumes them from the re-armed flush.
            kept = self._pending_rx
            flushed: list = []
            for entry in pending:
                when = entry[2]
                if type(when) is float:
                    (flushed if when <= horizon else kept).append(entry)
                    continue
                split = int(when.searchsorted(horizon, side="right"))
                if split:
                    flushed.append((entry[0], entry[1], when[:split]))
                if split < len(when):
                    kept.append((entry[0], entry[1], when[split:]))
            first = kept[0][2]
            self.sim.schedule_at(
                first if type(first) is float else float(first[0]),
                self._flush_rx,
                link,
            )
            pending = flushed
        peer = self._peer
        begin = peer.rx_flush_begin
        if begin is not None:
            begin()
        handler = peer._handler
        burst_handler = peer._burst_handler
        frames = 0
        total_bytes = 0
        for packet, size, when in pending:
            if type(when) is float:
                frames += 1
                total_bytes += size
                if handler is not None:
                    handler(peer, packet, size, when)
                continue
            frames += len(when)
            total_bytes += len(when) * size
            if burst_handler is not None:
                burst_handler(peer, packet, size, when)
            elif handler is not None:
                for at in when.tolist():
                    handler(peer, packet.copy(), size, at)
        self.tx.packets += frames
        self.tx.bytes += total_bytes
        peer.rx.packets += frames
        peer.rx.bytes += total_bytes
        end = peer.rx_flush_end
        if end is not None:
            end()

    def _deliver(self, packet: Packet, size: int, when: float) -> None:
        rx = self.rx
        rx.packets += 1
        rx.bytes += size
        if self._handler is not None:
            self._handler(self, packet, size, when)


def connect(a: Port, b: Port, propagation_s: float = DEFAULT_PROPAGATION_S) -> None:
    """Module-level convenience mirroring :meth:`Port.connect`."""
    a.connect(b, propagation_s)
