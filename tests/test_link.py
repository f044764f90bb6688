"""Port/link transport: timing, queueing, drops, wiring rules."""

from collections import Counter
from itertools import product

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.packet import make_udp, pad_to_min
from repro.sim import Port, Simulator, connect


def make_pair(sim, rate=10e9, queue_bytes=4096):
    a = Port(sim, "a", rate_bps=rate, queue_bytes=queue_bytes)
    b = Port(sim, "b", rate_bps=rate, queue_bytes=queue_bytes)
    connect(a, b, propagation_s=50e-9)
    return a, b


class TestDelivery:
    def test_packet_arrives(self, sim):
        a, b = make_pair(sim)
        got = []
        b.attach(lambda port, packet, size, when: got.append(packet))
        packet = make_udp(payload=b"hi")
        assert a.send(packet)
        sim.run()
        assert got and got[0] is packet

    def test_delivery_time_is_serialization_plus_propagation(self, sim):
        a, b = make_pair(sim)
        arrival = []
        b.attach(lambda port, packet, size, when: arrival.append(sim.now))
        packet = pad_to_min(make_udp())  # 60 B -> 84 B wire -> 67.2 ns
        a.send(packet)
        sim.run()
        assert arrival[0] == pytest.approx(67.2e-9 + 50e-9, rel=1e-9)

    def test_back_to_back_serialization(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        arrivals = []
        b.attach(lambda port, packet, size, when: arrivals.append(sim.now))
        for _ in range(3):
            a.send(pad_to_min(make_udp()))
        sim.run()
        gaps = [t2 - t1 for t1, t2 in zip(arrivals, arrivals[1:])]
        assert all(gap == pytest.approx(67.2e-9, rel=1e-9) for gap in gaps)

    def test_counters(self, sim):
        a, b = make_pair(sim)
        b.attach(lambda port, packet, size, when: None)
        a.send(make_udp(payload=b"x" * 100))
        sim.run()
        assert a.tx.packets == 1
        assert b.rx.packets == 1


class TestDrops:
    def test_unconnected_send_drops(self, sim):
        port = Port(sim, "lonely")
        assert not port.send(make_udp())
        assert port.drops.packets == 1

    def test_queue_overflow_tail_drop(self, sim):
        a, b = make_pair(sim, queue_bytes=200)
        b.attach(lambda port, packet, size, when: None)
        big = make_udp(payload=b"x" * 120)  # wire_len 162
        assert a.send(big)
        # First packet starts transmitting immediately; queue can hold one
        # more 162 B frame but not two.
        assert a.send(make_udp(payload=b"x" * 120))
        assert not a.send(make_udp(payload=b"x" * 120))
        assert a.drops.packets == 1

    def test_queue_depth_tracking(self, sim):
        """Packets and bytes agree: the depth is the undrained reservations."""
        a, b = make_pair(sim, queue_bytes=1 << 20)
        b.attach(lambda port, packet, size, when: None)
        for _ in range(4):
            a.send(pad_to_min(make_udp()))
        # One packet is in flight; remainder queued.
        assert (a.queue_depth_packets, a.queue_depth_bytes) == (3, 3 * 60)
        sim.run(until=100e-9)  # the second frame has started serializing
        assert (a.queue_depth_packets, a.queue_depth_bytes) == (2, 2 * 60)
        sim.run()
        assert (a.queue_depth_packets, a.queue_depth_bytes) == (0, 0)


class TestWiring:
    def test_double_connect_rejected(self, sim):
        a, b = make_pair(sim)
        c = Port(sim, "c")
        with pytest.raises(SimulationError):
            a.connect(c)

    def test_disconnect_allows_reconnect(self, sim):
        a, b = make_pair(sim)
        a.disconnect()
        assert not a.connected and not b.connected
        c = Port(sim, "c")
        a.connect(c)
        assert a.peer is c


FRAME_S = 67.2e-9  # a 60 B frame on a 10 Gb/s wire


def frame_times(n, start=0.0, gap=FRAME_S):
    return start + gap * np.arange(n)


class TestBatchedDelivery:
    """A sender batches toward a peer iff the peer asked for it: its handler
    came through ``attach_batch``, or it has no handler at all."""

    def test_batch_rx_option_is_gone(self, sim):
        with pytest.raises(TypeError):
            Port(sim, "p", **{"batch_rx": True})

    def test_counting_sink_is_batched(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        for at in frame_times(8).tolist():
            a.send_at(pad_to_min(make_udp()), at)
        sim.run()
        assert (a.tx.packets, b.rx.packets, b.rx.bytes) == (8, 8, 8 * 60)
        assert sim.events_processed == 1  # one flush, not one event per frame

    def test_per_frame_handler_keeps_one_event_per_frame(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        seen = []
        b.attach(lambda port, packet, size, when: seen.append((when, sim.now)))
        for at in frame_times(8).tolist():
            a.send_at(pad_to_min(make_udp()), at)
        sim.run()
        assert sim.events_processed == 8
        assert all(when == now for when, now in seen)
        assert [when for when, _now in seen] == pytest.approx(
            (frame_times(8) + FRAME_S + 50e-9).tolist(), rel=1e-12
        )

    def test_attach_batch_hands_a_flush_over_with_exact_times(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        seen = []
        b.attach_batch(
            lambda port, packet, size, when: seen.append((port, size, when, sim.now))
        )
        for at in frame_times(8).tolist():
            a.send_at(pad_to_min(make_udp()), at)
        sim.run()
        assert sim.events_processed == 1
        assert all(port is b and size == 60 for port, size, _w, _n in seen)
        # Handed over early in event time, each with its own wire arrival.
        assert {now for _p, _s, _w, now in seen} == {seen[0][2]}
        assert [when for _p, _s, when, _n in seen] == pytest.approx(
            (frame_times(8) + FRAME_S + 50e-9).tolist(), rel=1e-12
        )

    @pytest.mark.parametrize("batched_last", [False, True])
    def test_the_last_attach_wins(self, sim, batched_last):
        """A port holds one receive handler: of ``attach`` and
        ``attach_batch`` the last call picks both the handler and the
        delivery mode, and the one it replaced is never called."""
        a, b = make_pair(sim, queue_bytes=1 << 20)
        first, last = [], []
        first_attach, last_attach = (
            (b.attach, b.attach_batch) if batched_last else (b.attach_batch, b.attach)
        )
        first_attach(lambda port, packet, size, when: first.append(when))
        last_attach(lambda port, packet, size, when: last.append(when))
        for at in frame_times(8).tolist():
            a.send_at(pad_to_min(make_udp()), at)
        sim.run()
        assert not first and len(last) == 8
        assert sim.events_processed == (1 if batched_last else 8)

    def test_bursts_and_frames_share_one_queue_in_arrival_order(self, sim):
        """frame, burst, frame, frame, burst -> frame, burst, frame, frame,
        burst handler calls inside one flush bracket, with one tx/rx count."""
        a, b = make_pair(sim, queue_bytes=1 << 20)
        calls = []
        b.rx_flush_begin = lambda: calls.append("begin")
        b.rx_flush_end = lambda: calls.append("end")
        b.attach_batch(lambda port, packet, size, when: calls.append("frame"))
        b.attach_burst(
            lambda port, template, size, whens: calls.append(("burst", len(whens)))
        )
        template = pad_to_min(make_udp())
        a.send_at(template.copy(), 0.0)
        assert a.send_burst(template, 60, frame_times(4, start=FRAME_S)) == 4
        a.send_at(template.copy(), 5 * FRAME_S)
        a.send_at(template.copy(), 6 * FRAME_S)
        assert a.send_burst(template, 60, frame_times(3, start=7 * FRAME_S)) == 3
        sim.run()
        assert calls == [
            "begin", "frame", ("burst", 4), "frame", "frame", ("burst", 3), "end",
        ]
        assert (a.tx.packets, b.rx.packets) == (10, 10)

    def test_burst_without_a_burst_handler_reaches_the_receive_handler(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        seen = []
        b.attach_batch(lambda port, packet, size, when: seen.append((packet, when)))
        template = pad_to_min(make_udp())
        a.send_burst(template, 60, frame_times(4))
        a.send_at(template.copy(), 4 * FRAME_S)
        sim.run()
        assert len(seen) == 5 and sim.events_processed == 1
        assert all(packet is not template for packet, _when in seen)
        whens = [when for _packet, when in seen]
        assert whens == sorted(whens)

    def test_flush_stops_at_the_run_horizon(self, sim):
        """Frames due beyond ``until`` stay pending — bursts split at the
        horizon, single frames stay whole — and a later run resumes."""
        a, b = make_pair(sim, queue_bytes=1 << 20)
        template = pad_to_min(make_udp())
        a.send_burst(template, 60, frame_times(8))
        a.send_at(template.copy(), 8 * FRAME_S)
        a.send_at(template.copy(), 9 * FRAME_S)
        # Deliveries land at (k + 1) * FRAME_S + 50 ns.
        sim.run(until=4 * FRAME_S)
        assert b.rx.packets == 3
        sim.run(until=9.9 * FRAME_S)
        assert b.rx.packets == 9
        sim.run()
        assert (a.tx.packets, b.rx.packets) == (10, 10)

    def test_link_torn_down_with_frames_in_flight(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        a.send_burst(pad_to_min(make_udp()), 60, frame_times(4))
        a.disconnect()
        sim.run()
        assert (a.tx.packets, b.rx.packets) == (0, 0)
        assert (a.queue_depth_packets, a.queue_depth_bytes) == (0, 0)

    @pytest.mark.parametrize("per_frame", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_a_reservation_dies_with_its_link(self, sim, per_frame, reverse):
        """Disconnect then reconnect inside one serialization + propagation
        time: the old link's frames, queued or in flight, in either
        direction, never reach the new peer and are counted nowhere."""
        a, b = make_pair(sim, queue_bytes=1 << 20)
        sender, old_peer = (b, a) if reverse else (a, b)
        seen = []
        if per_frame:
            old_peer.attach(lambda port, packet, size, when: seen.append(port.name))
        for _ in range(3):
            assert sender.send(pad_to_min(make_udp()))
        a.disconnect()
        c = Port(sim, "c")
        if per_frame:
            c.attach(lambda port, packet, size, when: seen.append(port.name))
        sender.connect(c)
        assert sim.now == 0.0 and sim.pending() >= 1  # the deliveries are still armed
        sim.run()
        assert not seen
        assert (sender.tx.packets, sender.drops.packets) == (0, 0)
        assert (old_peer.rx.packets, c.rx.packets) == (0, 0)
        # The new link starts from an idle wire and works.
        assert sender.send(pad_to_min(make_udp()))
        sim.run()
        assert (sender.tx.packets, c.rx.packets, old_peer.rx.packets) == (1, 1, 0)
        assert seen == (["c"] if per_frame else [])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_a_new_link_delivers_ahead_of_the_old_links_frames(self, sim, reverse):
        """Reconnect, then send on the new link while the old link's frames
        are still in flight toward a per-frame peer: the new frames arrive
        on time, between the old frames' no-op events, and the clock never
        runs backwards."""
        a, b = make_pair(sim, queue_bytes=1 << 20)
        sender, old_peer = (b, a) if reverse else (a, b)
        seen = []

        def record(port, packet, size, when):
            seen.append((port.name, when, sim.now, sim.events_processed))

        old_peer.attach(record)
        for _ in range(3):  # 1,500 B frames: due at 1.27, 2.49 and 3.71 us
            assert sender.send(make_udp(payload=bytes(1458)))
        a.disconnect()
        c = Port(sim, "c")
        c.attach(record)
        sender.connect(c)
        assert sender.send(pad_to_min(make_udp()))
        sim.schedule(2e-6, lambda: sender.send(pad_to_min(make_udp())))
        assert sim.run() == ((1500 + 24) * 8 / 10e9) * 3 + 50e-9
        # Each new frame is due one 60 B frame time plus propagation after
        # its send, which is the event it fires as: the first event of the
        # run, then the fourth (after an old no-op and the send at 2 us).
        assert seen == [
            ("c", FRAME_S + 50e-9, FRAME_S + 50e-9, 1),
            ("c", (2e-6 + FRAME_S) + 50e-9, (2e-6 + FRAME_S) + 50e-9, 4),
        ]
        # Three old no-ops, two deliveries and the send between them.
        assert sim.events_processed == 6
        assert (sender.tx.packets, c.rx.packets, old_peer.rx.packets) == (2, 2, 0)


class TestBurstIsItsFrames:
    """``send_burst`` is ``send_at`` per frame, whatever the peer takes."""

    @staticmethod
    def deliveries(burst: bool, batch: bool, handler: bool, queue_bytes: int):
        sim = Simulator()
        a, b = make_pair(sim, queue_bytes=queue_bytes)
        seen = []
        if handler:
            b.attach(lambda port, packet, size, when: seen.append(when))
        if batch:
            b.attach_batch(lambda port, packet, size, when: seen.append(when))
        template = pad_to_min(make_udp())
        # 24 frames offered at twice the wire rate: the queue fills.
        times = frame_times(24, gap=FRAME_S / 2)
        if burst:
            sent = a.send_burst(template, 60, times)
        else:
            sent = sum(a.send_at(template.copy(), at, 60) for at in times.tolist())
        sim.run(until=float(times[-1]))
        depth = a.queue_depth_packets, a.queue_depth_bytes
        sim.run()
        counters = [c.metric_values() for c in (a.tx, a.drops, b.rx)]
        return sent, depth, counters, seen

    @pytest.mark.parametrize(
        "batch,handler",
        [(True, False), (True, True), (False, True), (False, False)],
    )
    @pytest.mark.parametrize("queue_bytes", [1 << 20, 300, 59])
    def test_matches_per_frame_sends(self, batch, handler, queue_bytes):
        """``attach_batch`` only, ``attach`` then ``attach_batch`` (the last
        wins), ``attach`` only, counting sink."""
        per_frame = self.deliveries(False, batch, handler, queue_bytes)
        burst = self.deliveries(True, batch, handler, queue_bytes)
        assert burst == per_frame
        sent, _depth, counters, seen = per_frame
        assert counters[0]["packets"] == counters[2]["packets"] == sent
        assert len(seen) == (sent if batch or handler else 0)
        if queue_bytes == 300:
            # The burst outran the queue: tail drops began mid-burst.
            assert 0 < sent < 24
        if queue_bytes == 59:
            assert sent == 0  # not even one 60 B frame fits
        if batch or handler:
            # Every regime delivers at the per-frame-handler timestamps.
            assert seen == self.deliveries(False, False, True, queue_bytes)[3]

    def test_send_delayed_folds_the_delay_into_the_reservation(self, sim):
        a, b = make_pair(sim, queue_bytes=1 << 20)
        seen = []
        b.attach(lambda port, packet, size, when: seen.append(sim.now))
        a.send_delayed(pad_to_min(make_udp()), 1e-6)
        sim.run()
        assert seen == [pytest.approx(1e-6 + FRAME_S + 50e-9, rel=1e-12)]
        assert sim.events_processed == 1  # no intermediate deferred send

    def test_empty_and_unconnected(self, sim, monkeypatch):
        a, b = make_pair(sim)
        assert a.send_burst(pad_to_min(make_udp()), 60, np.empty(0)) == 0
        a.disconnect()
        template = pad_to_min(make_udp())
        # Counted as drops in O(1): no per-frame copy only to discard it.
        monkeypatch.delattr(type(template), "copy")
        assert a.send_burst(template, 60, frame_times(3)) == 0
        assert (a.drops.packets, a.drops.bytes) == (3, 180)


class TestCarriedWireSize:
    """The fabric carries a frame's wire size; nothing downstream recomputes it.

    That is only sound while no hop changes a frame's length without
    updating the size it hands on, so every delivery of a chaos run is
    checked against a fresh ``packet.wire_len``.
    """

    def test_send_accepts_the_size_and_the_handler_reads_it_back(self, sim):
        a, b = make_pair(sim)
        packet = pad_to_min(make_udp(payload=b"x" * 100))
        seen = []
        b.attach(lambda port, pkt, size, when: seen.append(size))
        assert a.send(packet, packet.wire_len)
        assert a.send(packet.copy())  # the size is optional: computed here
        sim.run()
        assert seen == [packet.wire_len] * 2
        assert a.tx.bytes == b.rx.bytes == 2 * packet.wire_len

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_carried_size_is_the_recomputed_size_on_every_hop(
        self, monkeypatch, engine
    ):
        from repro.faults import FaultEvent, FaultPlan, play_gauntlet
        from repro.faults.gauntlet import LINE_LINK, MGMT_LINK, NAMED_PLANS
        from repro.netem import ImpairedPort
        from repro.obs.scenario import ScenarioSpec, TrafficProfile

        checked = Counter()
        impaired = set()

        def checking(cls, name):
            original = getattr(cls, name)

            def wrapper(port, packet, size, when):
                assert size == packet.wire_len, (port.name, name, size)
                checked[f"{cls.__name__}.{name}"] += 1
                if isinstance(port, ImpairedPort):
                    impaired.add(port)
                return original(port, packet, size, when)

            monkeypatch.setattr(cls, name, wrapper)

        checking(Port, "_deliver")
        checking(ImpairedPort, "_deliver")
        checking(ImpairedPort, "_finish_rx")
        kinds = ("link_duplicate_burst", "link_corrupt_burst")
        bursts = [
            FaultEvent(0.15 + 0.05 * i, kind, link, {"duration_s": 20e-3})
            for i, (kind, link) in enumerate(product(kinds, (LINE_LINK, MGMT_LINK)))
        ]
        plan = FaultPlan([*NAMED_PLANS["smoke"](5), *bursts], seed=5)
        spec = ScenarioSpec(
            kind="chaos", traffic=TrafficProfile(20e6, 512, 0.4), seed=5, engine=engine
        )
        assert play_gauntlet(spec, plan).summary["packets_received"] > 1000
        assert min(checked.values()) > 1000 and len(checked) == 3
        assert sum(port.duplicated.packets for port in impaired) > 10
        assert sum(port.corrupted.packets for port in impaired) > 10

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize("kind", ["nfv-chain", "nat-linerate"])
    def test_the_ppe_completion_carries_the_post_process_size(
        self, monkeypatch, kind, engine
    ):
        """The PPE hop: a slot's completion callback hands ``send_at`` the
        size the engine measured after processing (nfv-chain's in-band tenant
        grows the frame by an INT shim), so no send re-walks the headers; on
        both tiers the frame's time is an argument, so the module never calls
        ``send_delayed``."""
        from repro.core.module import FlexSFPModule
        from repro.obs.scenario import ScenarioSpec, TrafficProfile

        completing = []  # the frame a completion is egressing right now
        sent = Counter()
        sizes = set()
        bind_done = FlexSFPModule._bind_done

        def checked_bind_done(module, slot, direction):
            done, burst_done = bind_done(module, slot, direction)

            def checked_done(packet, verdict, emitted, size, deliver_s):
                assert size == packet.wire_len, (module.name, verdict, size)
                completing.append(packet)
                try:
                    done(packet, verdict, emitted, size, deliver_s)
                finally:
                    completing.pop()

            return checked_done, burst_done

        def checking(name):
            original = getattr(Port, name)

            def wrapper(port, packet, when, size=None):
                if completing and packet is completing[-1]:
                    assert size == packet.wire_len, (port.name, name, size)
                    sent[name] += 1
                    sizes.add(size)
                return original(port, packet, when, size)

            monkeypatch.setattr(Port, name, wrapper)

        monkeypatch.setattr(FlexSFPModule, "_bind_done", checked_bind_done)
        checking("send_at")
        checking("send_delayed")
        # A tracer (tracing nothing) keeps nat-linerate's compiled tier on the
        # per-frame lane, where the size is the flow-cache recipe's.
        run = ScenarioSpec(
            kind=kind,
            engine=engine,
            traffic=TrafficProfile(10e9, 60, 50e-6),
            trace_packets=0,
        ).run()
        passed = sum(
            value
            for name, value in run.metrics().items()
            if name.endswith(".verdicts.pass")
        )
        assert sent == {"send_at": passed} and passed > 400
        assert (max(sizes) > 60) == (kind == "nfv-chain")
