"""``Port`` against the model it replaced: an event-per-frame FIFO.

A port reserves at submit — admission, serialization and delivery time are
arithmetic on a ``ServiceTimeline``, and no event marks the end of a
serialization.  The executable definition of what that arithmetic must
equal is the transmit path ``Port`` used to carry beside it: a
byte-bounded FIFO drained by one tx-done and one deliver event per frame.
It lives here now, as :class:`FifoPort`, and the property drives it and a
real ``Port`` with the same arrivals — random mixes of ``send``,
``send_at`` and ``send_delayed``, frame sizes, rates, queue limits and
propagation delays, arrivals non-decreasing per port (the documented
``_reserve_tx`` precondition), including arrivals that land exactly on a
serialization boundary and arrivals that hit the tail-drop limit — and
demands bit-equal delivery timestamps, equal drop sets and equal counters.
"""

from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import make_udp
from repro.sim import Port, Simulator, connect
from repro.sim.mac import serialization_time

HEADERS = 42  # make_udp: Ethernet + IPv4 + UDP in front of the payload


class FifoPort:
    """The event-per-frame transmit path: the reference model.

    A frame's bytes sit in the FIFO until its serialization starts; the
    frame on the wire is not queued.  At equal timestamps the driver runs
    a pending tx-done before the arrival, the order a deferred ``send``
    scheduled behind it would see.
    """

    def __init__(self, sim, rate_bps, queue_bytes, propagation_s):
        self.sim = sim
        self.rate_bps = rate_bps
        self.queue_bytes = queue_bytes
        self.propagation_s = propagation_s
        self._tx_fifo = deque()
        self._tx_fifo_bytes = 0
        self._tx_busy = False
        self.tx = {"packets": 0, "bytes": 0}
        self.dropped = []
        self.delivered = []
        self.boundaries = set()  # every instant a serialization ended

    def send(self, frame, size):
        if self._tx_fifo_bytes + size > self.queue_bytes:
            self.dropped.append(frame)
            return
        self._tx_fifo.append((frame, size))
        self._tx_fifo_bytes += size
        if not self._tx_busy:
            self._start_next_tx()

    def _start_next_tx(self):
        if not self._tx_fifo:
            self._tx_busy = False
            return
        self._tx_busy = True
        frame, size = self._tx_fifo.popleft()
        self._tx_fifo_bytes -= size
        self.sim.schedule(
            serialization_time(size, self.rate_bps), self._tx_done, frame, size
        )

    def _tx_done(self, frame, size):
        self.tx["packets"] += 1
        self.tx["bytes"] += size
        self.boundaries.add(self.sim.now)
        self.sim.schedule(self.propagation_s, self._deliver, frame)
        self._start_next_tx()

    def _deliver(self, frame):
        self.delivered.append((frame, self.sim.now))


SIZES = st.one_of(
    st.sampled_from([60, 60, 594, 1514]), st.integers(min_value=60, max_value=1514)
)
# Gap to the previous arrival: none, exactly the previous frame's
# serialization time (a source at line rate: arrivals land on the instant
# the wire frees or a queued frame starts), or anything up to a few frames.
GAPS = st.one_of(
    st.sampled_from(["none", "service", "service"]),
    st.floats(min_value=0.0, max_value=3e-6),
)
# How long before its arrival a future-dated frame is handed to the port.
LEADS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5e-6))
OPS = st.lists(
    st.tuples(st.sampled_from(["send", "send_at", "send_delayed"]), GAPS, SIZES, LEADS),
    min_size=1,
    max_size=40,
)
QUEUES = st.one_of(
    st.sampled_from([59, 60, 120, 300, 1514, 4096, 1 << 20]),
    st.integers(min_value=0, max_value=8192),
)


def test_port_matches_the_event_per_frame_fifo():
    seen = Counter()

    @settings(max_examples=400, deadline=None)
    @given(
        ops=OPS,
        rate_bps=st.sampled_from([1e9, 2.5e9, 10e9]),
        queue_bytes=QUEUES,
        propagation_s=st.sampled_from([0.0, 50e-9, 5e-6]),
        batched=st.booleans(),
    )
    def check(ops, rate_bps, queue_bytes, propagation_s, batched):
        sim = Simulator()
        a = Port(sim, "a", rate_bps=rate_bps, queue_bytes=queue_bytes)
        b = Port(sim, "b", rate_bps=rate_bps)
        connect(a, b, propagation_s)
        delivered = []
        sent_sizes = {}

        def on_rx(port, packet, size, when):
            # One handler for both delivery modes: the sent size, and the
            # wire arrival, which per frame is also the event's time.
            frame = packet.meta["frame"]
            assert port is b and size == sent_sizes[frame]
            assert batched or when == sim.now
            delivered.append((frame, when))

        (b.attach_batch if batched else b.attach)(on_rx)
        model_sim = Simulator()
        model = FifoPort(model_sim, rate_bps, queue_bytes, propagation_s)

        verdicts = {}
        arrival = called = 0.0
        previous_size = 60
        for frame, (kind, gap, size, lead) in enumerate(ops):
            if gap == "service":
                gap = serialization_time(previous_size, rate_bps)
            elif gap == "none":
                gap = 0.0
            target = arrival + gap
            if kind == "send":
                lead = 0.0
            called = max(called, target - lead)
            delay = target - called
            if kind == "send_delayed" and called + delay < arrival:
                kind = "send_at"  # the sum rounded below the last arrival
            arrival = called + delay if kind == "send_delayed" else target
            previous_size = size

            packet = make_udp(payload=bytes(size - HEADERS))
            packet.meta["frame"] = frame
            sent_sizes[frame] = size
            sim.run(until=called)
            if kind == "send":
                verdicts[frame] = a.send(packet)
            elif kind == "send_at":
                verdicts[frame] = a.send_at(packet, arrival)
            else:
                a.send_delayed(packet, delay)
                seen["send_delayed"] += 1
            model_sim.run(until=arrival)
            model.send(frame, size)
            seen["tie"] += arrival in model.boundaries
            seen["future-dated"] += arrival > called
        model_sim.run()
        # Past the model's last event: a flush hands frames over early in
        # event time, so a bare run() can stop short of the last delivery.
        sim.run(until=model_sim.now + 1.0)

        assert delivered == model.delivered  # same frames, bit-equal floats
        assert len(delivered) + len(model.dropped) == len(ops)  # so same drops
        assert verdicts == {
            frame: frame not in model.dropped for frame in verdicts
        }
        assert a.tx.metric_values() == b.rx.metric_values() == model.tx
        assert a.drops.packets == len(model.dropped)
        assert (a.queue_depth_packets, a.queue_depth_bytes) == (0, 0)
        seen["tail-drop"] += bool(model.dropped)
        seen["batched"] += batched

    check()
    # The generator reached every regime the property is about.
    for regime in ("tail-drop", "tie", "send_delayed", "future-dated", "batched"):
        assert seen[regime] >= 10, seen
