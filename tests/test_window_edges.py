"""Window edges: a dark or raised window is ``[start, until)`` at the
frame's wire time, on both tiers.

Each test places one frame exactly on an edge, with a frame on either
side of it: a frame arriving at ``start`` is judged inside the window, one
arriving at ``until`` outside.  The arrival times are measured first, at
the port that judges them or a plain port cabled in its place, then the
window is opened on that exact float.
"""

import math

import pytest

from repro.apps import Passthrough
from repro.core import FlexSFPModule
from repro.core.module import RECONFIG_DOWNTIME_S
from repro.netem import ImpairedPort
from repro.nfv import Deployment
from repro.packet import make_udp
from repro.sim import Port, Simulator, connect

TIERS = ("reference", "compiled")
#: Three frames after the module's boot window, far enough apart that
#: each is delivered on its own.
SEND_AT_S = tuple(RECONFIG_DOWNTIME_S + t for t in (10e-6, 30e-6, 50e-6))


def ending_at(until: float, duration: float) -> float:
    """The start whose ``start + duration`` is exactly ``until``."""
    start = until - duration
    while start + duration > until:
        start = math.nextafter(start, -math.inf)
    while start + duration < until:
        start = math.nextafter(start, math.inf)
    assert start + duration == until
    return start


class TestImpairedPortEdges:
    """Frames cross a module of each tier, then an impaired fiber port."""

    @staticmethod
    def delivered(engine, window=None):
        """The arrival times of the frames the fiber port kept.

        ``window(sim, fiber)`` opens the window under test; it is
        called before any frame is sent, so a window event at a frame's own
        time fires first.  Without it every frame is kept and the arrival
        times are the ones the window is placed on.
        """
        sim = Simulator()
        module = FlexSFPModule(
            sim, "m", Deployment.solo(Passthrough()), auth_key=b"k", engine=engine
        )
        host = Port(sim, "host", 10e9)
        fiber = ImpairedPort(sim, "fiber", seed=1)
        kept = []
        fiber.attach(lambda port, packet, size, when: kept.append(when))
        connect(host, module.edge_port)
        connect(module.line_port, fiber)
        if window is not None:
            window(sim, fiber)
        for at in SEND_AT_S:
            sim.schedule_at(at, host.send, make_udp())
        sim.run(until=SEND_AT_S[-1] + 1e-3)
        return kept

    @pytest.fixture(params=TIERS)
    def edge(self, request):
        """(tier, the three arrival times), all three kept unwindowed."""
        arrivals = self.delivered(request.param)
        assert len(arrivals) == 3
        return request.param, arrivals

    def test_dark_start_drops_the_frame_on_it(self, edge):
        engine, arrivals = edge
        kept = self.delivered(
            engine,
            lambda sim, fiber: sim.schedule_at(arrivals[1], fiber.flap, 1e-3),
        )
        assert kept == arrivals[:1]

    def test_dark_end_keeps_the_frame_on_it(self, edge):
        engine, arrivals = edge
        kept = self.delivered(engine, lambda sim, fiber: fiber.flap(arrivals[1]))
        assert kept == arrivals[1:]

    def test_raised_loss_start_drops_the_frame_on_it(self, edge):
        engine, arrivals = edge
        kept = self.delivered(
            engine,
            lambda sim, fiber: sim.schedule_at(
                arrivals[1], fiber.loss_burst, 1e-3, 1.0
            ),
        )
        assert kept == arrivals[:1]

    def test_raised_loss_end_keeps_the_frame_on_it(self, edge):
        engine, arrivals = edge
        kept = self.delivered(
            engine, lambda sim, fiber: fiber.loss_burst(arrivals[1], 1.0)
        )
        assert kept == arrivals[1:]


class TestRebootEdges:
    """A module of each tier reboots with a frame exactly on an edge of its
    ``RECONFIG_DOWNTIME_S`` window."""

    @staticmethod
    def arrivals():
        """When the three frames reach a module's edge port."""
        sim = Simulator()
        host, edge = Port(sim, "host", 10e9), Port(sim, "edge", 10e9)
        seen = []
        edge.attach(lambda port, packet, size, when: seen.append(when))
        connect(host, edge)
        for at in SEND_AT_S:
            sim.schedule_at(at, host.send, make_udp())
        sim.run()
        return seen

    @staticmethod
    def forwarded(engine, reboot_at):
        """Which frames a module rebooting at ``reboot_at`` forwards."""
        sim = Simulator()
        module = FlexSFPModule(
            sim, "m", Deployment.solo(Passthrough()), auth_key=b"k", engine=engine
        )
        host, fiber = Port(sim, "host", 10e9), Port(sim, "fiber", 10e9)
        kept = []
        fiber.attach(lambda port, packet, size, when: kept.append(packet.payload[0]))
        connect(host, module.edge_port)
        connect(module.line_port, fiber)
        sim.schedule_at(reboot_at, module.reboot)
        for index, at in enumerate(SEND_AT_S):
            sim.schedule_at(at, host.send, make_udp(payload=bytes([index])))
        sim.run(until=reboot_at + RECONFIG_DOWNTIME_S + 1e-3)
        assert module.reboots == 1
        assert module.downtime_drops.packets == len(SEND_AT_S) - len(kept)
        return kept

    @pytest.mark.parametrize("engine", TIERS)
    def test_down_edge_drops_the_frame_on_it(self, engine):
        on_edge = self.arrivals()[1]
        assert self.forwarded(engine, on_edge) == [0]

    @pytest.mark.parametrize("engine", TIERS)
    def test_up_edge_forwards_the_frame_on_it(self, engine):
        on_edge = self.arrivals()[1]
        reboot_at = ending_at(on_edge, RECONFIG_DOWNTIME_S)
        assert self.forwarded(engine, reboot_at) == [1, 2]


class TestJitteredDarkEdges:
    """A jittered frame meets the dark window twice: ``_deliver`` judges it
    at its arrival, before any random draw, and ``_finish_rx`` again at
    its jittered delivery time.  Frames reach the impaired port at the
    arrival times ``TestRebootEdges.arrivals`` measures (same link)."""

    JITTER_S = 10e-6
    FLAP_S = 20e-6  # longer than the jitter, shorter than the frame gap

    def deliveries(self, sends, flap_at=None):
        """(delivery times, impairment drops) of frames sent at ``sends``
        into a jittered port that goes dark at ``flap_at``."""
        sim = Simulator()
        host = Port(sim, "host", 10e9)
        fiber = ImpairedPort(sim, "fiber", jitter_s=self.JITTER_S, seed=1)
        kept = []
        fiber.attach(lambda port, packet, size, when: kept.append(when))
        connect(host, fiber)
        if flap_at is not None:
            sim.schedule_at(flap_at, fiber.flap, self.FLAP_S)
        for at in sends:
            sim.schedule_at(at, host.send, make_udp())
        sim.run()
        return kept, fiber.impairment_drops.packets

    def test_a_frame_on_the_dark_start_draws_no_random_number(self):
        on_edge, _, after = TestRebootEdges.arrivals()
        assert on_edge + self.FLAP_S < after
        kept, drops = self.deliveries([SEND_AT_S[0], SEND_AT_S[2]], flap_at=on_edge)
        # A twin that never saw the dark frame draws the same numbers.
        twin, twin_drops = self.deliveries([SEND_AT_S[2]], flap_at=on_edge)
        assert (drops, twin_drops) == (1, 0)
        assert kept == twin and after < kept[0]

    def test_jitter_into_the_dark_window_drops_at_delivery(self):
        arrival = TestRebootEdges.arrivals()[0]
        dark_start = arrival + 1e-9
        [jittered], _ = self.deliveries([SEND_AT_S[0]])
        assert dark_start < jittered < dark_start + self.FLAP_S
        assert self.deliveries([SEND_AT_S[0]], flap_at=dark_start) == ([], 1)
