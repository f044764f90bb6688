"""A port's in-flight FIFO against one scheduled event per frame.

Toward a per-frame peer (``Port.attach``), a sending port keeps its
reserved frames in a FIFO and arms one simulator event, for the head,
re-armed with the next frame's time and the ``seq`` that frame took at
reservation.  That is exact because delivery times never decrease in
reservation order, whatever order the *arrivals* come in: each finish lies
past ``free_at``, which only grows, and so does ``now``.

The reference here is what the FIFO replaced: :class:`EventPerFramePort`
admits each frame on its own :class:`~repro.sim.engine.ServiceTimeline`
and schedules one delivery event per frame.  The property runs two
producers that reserve on the same port out of arrival order (each its
own event chain; a frame's arrival lies up to a few frames before or after
its producer's event), plus a probe event beside every send so that
equal-time events are common, and demands the same log — every delivery's
``sim.now`` and ``when`` in order, every probe — and the same
``events_processed`` and final clock.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import make_udp
from repro.sim import Port, Simulator, connect
from repro.sim.engine import ServiceTimeline

HEADERS = 42  # make_udp: Ethernet + IPv4 + UDP in front of the payload


class EventPerFramePort:
    """The reference: one delivery event per admitted frame."""

    def __init__(self, sim, rate_bps, queue_bytes, propagation_s, deliver):
        self.sim = sim
        self.rate_bps = rate_bps
        self.queue_bytes = queue_bytes
        self.propagation_s = propagation_s
        self.deliver = deliver
        self.timeline = ServiceTimeline()

    def send_at(self, packet, at_s, size):
        service = (max(size + 4, 64) + 20) * 8 / self.rate_bps
        finish = self.timeline.admit(at_s, size, service, self.queue_bytes)
        if finish is None:
            return False
        when = finish + self.propagation_s
        now = self.sim.now
        self.sim.schedule_at(when if when > now else now, self._fire, packet, size)
        return True

    def _fire(self, packet, size):
        # A per-frame receiver is handed the event's time as ``when``.
        self.deliver(packet, size, self.sim.now)


# A producer's event chain: the gap to its next event and where its
# frame's arrival lies against that event (behind it, on it, or ahead).
GAPS = st.one_of(st.sampled_from([0.0, 0.0, 67.2e-9, 1e-6]), st.floats(0.0, 2e-6))
OFFSETS = st.one_of(st.sampled_from([0.0, -1e-6, 1e-6]), st.floats(-3e-6, 3e-6))
SIZES = st.sampled_from([60, 60, 594, 1514])
CHAINS = st.lists(st.tuples(GAPS, OFFSETS, SIZES), min_size=1, max_size=20)


def run(program, rate_bps, queue_bytes, propagation_s, real):
    """Drive ``program`` through a real port or the reference; the log."""
    sim = Simulator()
    log = []

    def record(packet, size, when):
        log.append(("rx", packet.meta["frame"], size, sim.now, when))

    if real:
        a = Port(sim, "a", rate_bps=rate_bps, queue_bytes=queue_bytes)
        b = Port(sim, "b", rate_bps=rate_bps)
        connect(a, b, propagation_s)
        b.attach(lambda port, packet, size, when: record(packet, size, when))
        send_at = a.send_at
    else:
        send_at = EventPerFramePort(
            sim, rate_bps, queue_bytes, propagation_s, record
        ).send_at
    arrivals = []

    def step(producer, chain, index):
        gap, offset, size = chain[index]
        packet = make_udp(payload=bytes(size - HEADERS))
        packet.meta["frame"] = (producer, index)
        at_s = sim.now + offset
        arrivals.append(at_s)
        log.append(("send", producer, index, sim.now, send_at(packet, at_s, size)))
        sim.schedule(0.0, lambda: log.append(("probe", producer, index, sim.now)))
        if index + 1 < len(chain):
            sim.schedule(gap, step, producer, chain, index + 1)

    for producer, chain in enumerate(program):
        sim.schedule(0.0, step, producer, chain, 0)
    sim.run()
    return log, sim.events_processed, sim.now, arrivals


def test_in_flight_fifo_matches_one_event_per_frame():
    seen = Counter()

    @settings(max_examples=300, deadline=None)
    @given(
        program=st.tuples(CHAINS, CHAINS),
        rate_bps=st.sampled_from([1e9, 10e9]),
        queue_bytes=st.sampled_from([1514, 4096, 1 << 20]),
        propagation_s=st.sampled_from([0.0, 50e-9, 5e-6]),
    )
    def check(program, rate_bps, queue_bytes, propagation_s):
        real = run(program, rate_bps, queue_bytes, propagation_s, real=True)
        model = run(program, rate_bps, queue_bytes, propagation_s, real=False)
        assert real == model
        log, _events, _now, arrivals = real
        times = [entry[3] for entry in log]
        assert times == sorted(times)  # the clock never runs backwards
        latest = float("-inf")
        for at in arrivals:
            seen["out of arrival order"] += at < latest
            latest = max(latest, at)
        delivered = [entry for entry in log if entry[0] == "rx"]
        seen["equal-time events"] += len(times) - len(set(times))
        seen["tail-drop"] += any(entry[0] == "send" and not entry[4] for entry in log)
        seen["delivered"] += len(delivered)

    check()
    for regime in ("out of arrival order", "equal-time events", "tail-drop"):
        assert seen[regime] >= 50, seen
