"""Each per-frame shortcut equals what it replaced.

The per-frame lane stopped redoing work whose answer is fixed per class,
per flow or per run; every replacement here is checked against the
definition it stands for: compiled crossbar rows against
``SteeringMatch.matches``, the controller's magic pre-check against the
``unpack``-first receive path (kept below as a model), the N-2 copy flood
against "every egress port gets its own equal frame", and the plain
``Header`` against the abstract-method contract ``ABC`` used to hold.
``Simulator.schedule`` pushing its own heap entry is covered by
``tests/test_sim_engine_property.py``.

The compiled lane costs one call per layer a frame crosses, so the helpers
that decided nothing per frame are inlined or decided once, and each is
held to its definition here too: ``Crossbar.steer`` against ``select``
plus ``Counter.count``, the engine's build-time flow-key decision against
calling ``flow_key``, the drains' latency binning against
``Histogram.add``, a module's processed directions against
``ShellSpec.processes`` and ``Arbiter.classify`` against ``is_mgmt_frame``
plus the counts.  The drains themselves keep two invariants: a traced
frame is the only one that takes the traced path, and an application that
returns no ``Verdict`` is refused on every drain and on both tiers.

An application decides a frame in one call per decision: ``count`` against
``counter().count``, the INT source and transit (records built by slot
stores, each value checked inline) against the validating constructors,
and the sanitizer's inline scans against its helpers, both kept below as
models; the fast engine's context, built without ``__init__``, against
the oracle's.
"""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import int_to_ip, ip_to_int
from repro.apps import InbandTelemetry, PacketSanitizer, create_app
from repro.apps.inband import DIRECTIONS
from repro.apps.sanitizer import DEFAULT_MARTIANS
from repro.artifact.diff import semantic_metrics
from repro.core import Direction, PacketProcessingEngine, ReferenceEngine, Verdict
from repro.core.arbiter import Arbiter, is_mgmt_frame
from repro.core import flowcache
from repro.core.flowcache import FlowCache, record_recipe
from repro.core.mgmt import MAGIC, MgmtMessage, MgmtOp, mgmt_frame
from repro.core.module import FlexSFPModule
from repro.core.ppe import PPEApplication
from repro.core.shells import ShellKind, ShellSpec
from repro.errors import ConfigError, ControlPlaneError, SimulationError
from repro.fleet import FleetController
from repro.fpga import TimingSpec
from repro.hls.ir import PipelineSpec, Stage, StageKind
from repro.nfv import Deployment, SteeringMatch, TenantSpec
from repro.nfv.crossbar import Crossbar
from repro.obs.scenario import ScenarioSpec, TrafficProfile
from repro.obs.trace import TRACE_ID_META
from repro.packet import (
    ARP,
    ETHERTYPE_TRANSPARENT_ETHERNET,
    GRE,
    UDP,
    Ethernet,
    EtherType,
    Header,
    INTHop,
    INTShim,
    IPProto,
    IPv4,
    Packet,
    gre_encap,
    make_tcp,
    make_udp,
    make_udp6,
    vlan_push,
    vxlan_encap,
)
from repro.packet.base import Record
from repro.sim import Port, Simulator
from repro.sim.stats import Counter, Histogram
from repro.switch import LegacySwitch
from repro.switch.legacy import SWITCH_PIPELINE_LATENCY_S

from tests.conftest import make_ctx

KEY = b"replacement-key"

# ----------------------------------------------------------------------
# Crossbar.select == the first SteeringMatch.matches
# ----------------------------------------------------------------------
# A small address and port pool, so that generated rules and generated
# frames agree often enough for every branch to be taken.
ADDRESSES = [0x0A000001, 0x0A000002, 0x0A0000FF, 0x0A010001, 0xC0A80001, 0, 0xFFFFFFFF]
PORTS = [0, 53, 9099, 20000, 65535]

matches = st.builds(
    SteeringMatch,
    udp_dport=st.none() | st.sampled_from(PORTS),
    dst_ip=st.none() | st.sampled_from(ADDRESSES).map(int_to_ip),
    prefix_len=st.sampled_from([0, 1, 8, 16, 24, 31, 32]),
)


def ipv4_without_l4(dst):
    packet = make_udp(dst_ip=dst)
    packet.remove(packet.udp)
    return packet


def udp_before_ipv4(dst, dport):
    """An odd stack: the first UDP header comes before the first IPv4."""
    packet = make_udp(dst_ip=dst, dport=dport)
    eth, ip, udp = packet.headers[:3]
    packet.headers[:3] = [eth, udp, ip]
    return packet


def two_udp_headers(dst, outer, inner):
    packet = make_udp(dst_ip=dst, dport=outer)
    packet.insert_after(packet.udp, UDP(1234, inner))
    return packet


frames = st.one_of(
    st.builds(make_udp, dst_ip=st.sampled_from(ADDRESSES), dport=st.sampled_from(PORTS)),
    st.builds(make_tcp, dst_ip=st.sampled_from(ADDRESSES), dport=st.sampled_from(PORTS)),
    st.builds(
        lambda dst, dport, vid: vlan_push(make_udp(dst_ip=dst, dport=dport), vid),
        st.sampled_from(ADDRESSES), st.sampled_from(PORTS), st.integers(1, 4094),
    ),
    st.sampled_from(ADDRESSES).map(ipv4_without_l4),
    st.builds(make_udp6, dport=st.sampled_from(PORTS)),
    st.just(Packet([Ethernet(ethertype=EtherType.ARP), ARP()])),
    st.just(Packet([], b"raw")),
    st.builds(udp_before_ipv4, st.sampled_from(ADDRESSES), st.sampled_from(PORTS)),
    st.builds(
        two_udp_headers,
        st.sampled_from(ADDRESSES), st.sampled_from(PORTS), st.sampled_from(PORTS),
    ),
    st.builds(
        lambda dst, dport, outer: vxlan_encap(
            make_udp(dst_ip=dst, dport=dport), 7, "192.168.0.1", outer
        ),
        st.sampled_from(ADDRESSES), st.sampled_from(PORTS), st.sampled_from(ADDRESSES),
    ),
)  # fmt: skip


def tenants_for(rules):
    return [
        TenantSpec(f"t{index}", "passthrough", match=match)
        for index, match in enumerate([*rules, SteeringMatch()])
    ]


class TestCrossbarRows:
    @given(st.lists(matches, max_size=5), st.lists(frames, min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_select_is_the_first_rule_that_matches(self, rules, packets):
        rules = [*rules, SteeringMatch()]  # the mandatory catch-all, last
        tenants = [
            TenantSpec(f"t{index}", "passthrough", match=match)
            for index, match in enumerate(rules)
        ]
        crossbar = Crossbar("xbar", tenants)
        for packet in packets:
            expected = next(i for i, rule in enumerate(rules) if rule.matches(packet))
            assert crossbar.select(packet) == expected, (rules, packet)

    def test_every_rule_shape_is_reached(self):
        """The strategy above is not vacuous: each rule shape claims a frame."""
        shapes = {
            "dport": SteeringMatch(udp_dport=9099),
            "prefix": SteeringMatch(dst_ip="10.0.0.0", prefix_len=24),
            "both": SteeringMatch(udp_dport=53, dst_ip="10.0.0.1"),
            "len0": SteeringMatch(dst_ip="192.168.0.1", prefix_len=0),
        }
        tenants = [TenantSpec(name, "passthrough", match=m) for name, m in shapes.items()]
        crossbar = Crossbar("xbar", [*tenants, TenantSpec("rest", "passthrough")])
        assert crossbar.select(make_udp(dst_ip="172.16.0.1", dport=9099)) == 0
        assert crossbar.select(make_udp(dst_ip="10.0.0.9", dport=1)) == 1
        assert crossbar.select(make_udp(dst_ip="10.0.1.1", dport=53)) == 3  # not "both"
        assert crossbar.select(make_tcp(dst_ip="10.0.0.1", dport=53)) == 1
        assert crossbar.select(make_tcp(dst_ip="172.16.0.1", dport=9099)) == 3
        assert crossbar.select(make_udp6(dport=9099)) == 4  # not IPv4: catch-all
        assert crossbar.select(Packet([], b"raw")) == 4

    def test_falling_through_every_rule_is_still_an_assertion(self):
        crossbar = Crossbar("xbar", [TenantSpec("only", "passthrough", SteeringMatch(53))])
        with pytest.raises(AssertionError):
            crossbar.select(make_udp(dport=54))
        with pytest.raises(AssertionError):
            crossbar.steer(make_udp(dport=54), 60)

    @given(
        st.lists(matches, max_size=5),
        st.lists(st.tuples(frames, st.integers(0, 1518)), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_steer_is_select_plus_a_count(self, rules, sent):
        steering = Crossbar("xbar", tenants_for(rules))
        model = Crossbar("xbar", tenants_for(rules))
        for packet, size in sent:
            index = model.select(packet)
            model.steered[index].count(size)
            assert steering.steer(packet, size) == index
        assert [(c.packets, c.bytes) for c in steering.steered] == [
            (c.packets, c.bytes) for c in model.steered
        ]


# ----------------------------------------------------------------------
# FleetController._on_rx == the unpack-first receive path
# ----------------------------------------------------------------------
def unpack_first_on_rx(controller, packet):
    """The receive path before the magic pre-check, as a model: every frame
    goes to ``unpack``, a refused one raises and is dropped.  (The garbled
    body is refused here too; it used to escape as an exception.)"""
    try:
        message = MgmtMessage.unpack(packet.payload, controller.auth_key)
        body = message.json_body()
    except ControlPlaneError:
        return
    if message.opcode not in (MgmtOp.ACK, MgmtOp.NAK):
        return
    if message.opcode is MgmtOp.NAK:
        controller.naks.count()
    pending = controller._pending.pop(message.seq, None)
    if pending is not None:
        pending.timer.cancel()
        pending.callback(body)


def valid_reply(opcode, seq, key=KEY):
    return MgmtMessage.control(opcode, seq, ok=True).pack(key)


payloads = st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=40).map(lambda tail: MAGIC + tail),
    st.binary(min_size=1, max_size=1),
    st.just(b""),
    st.just(bytes(470)),  # a flooded data frame
    st.builds(valid_reply, st.sampled_from([MgmtOp.ACK, MgmtOp.NAK]), st.integers(1, 4)),
    st.builds(valid_reply, st.just(MgmtOp.HELLO), st.integers(1, 4)),
    st.builds(valid_reply, st.just(MgmtOp.ACK), st.integers(1, 4), st.just(b"wrong-key")),
    st.integers(1, 4).map(lambda seq: MgmtMessage(MgmtOp.ACK, seq, b"not json").pack(KEY)),
    st.integers(1, 4).map(lambda seq: MgmtMessage(MgmtOp.ACK, seq, b"[]").pack(KEY)),
)


def controller_state(controller, replies):
    return (
        sorted(controller._pending),
        controller.naks.packets,
        controller.timeouts.packets,
        controller.retries.packets,
        copy.deepcopy(replies),
    )


class TestMagicPreCheck:
    @given(st.lists(payloads, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_on_rx_leaves_the_state_the_unpack_first_path_leaves(self, received):
        states = []
        for on_rx in (FleetController._on_rx, unpack_first_on_rx):
            sim = Simulator()
            controller = FleetController(sim, auth_key=KEY)
            replies = []
            for _ in range(3):  # requests 1..3 pending, 4 never sent
                controller.hello("02:00:00:00:00:09", replies.append)
            for payload in received:
                frame = Packet([Ethernet(ethertype=EtherType.FLEXSFP_MGMT)], payload)
                if on_rx is unpack_first_on_rx:
                    on_rx(controller, frame)
                else:
                    on_rx(controller, controller.port, frame, frame.wire_len, sim.now)
            states.append(controller_state(controller, replies))
        assert states[0] == states[1]

    def test_a_data_frame_is_refused_without_an_exception(self, monkeypatch):
        calls = []
        unpack = MgmtMessage.unpack.__func__
        monkeypatch.setattr(
            MgmtMessage,
            "unpack",
            classmethod(lambda cls, data, key: calls.append(data) or unpack(cls, data, key)),
        )
        controller = FleetController(Simulator(), auth_key=KEY)
        data = make_udp(payload=bytes(470))
        controller._on_rx(controller.port, data, data.wire_len, 0.0)
        assert calls == []
        reply = mgmt_frame(MgmtMessage.control(MgmtOp.ACK, 1, ok=True), KEY, 1, 2)
        controller._on_rx(controller.port, reply, reply.wire_len, 0.0)
        assert len(calls) == 1


# ----------------------------------------------------------------------
# The flood: every egress port its own equal frame, N-2 copies
# ----------------------------------------------------------------------
class TestFlood:
    @pytest.mark.parametrize("num_ports", [2, 3, 5])
    @pytest.mark.parametrize("ingress", [0, 1])
    def test_every_egress_port_gets_its_own_equal_frame(
        self, monkeypatch, num_ports, ingress
    ):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=num_ports)
        hosts = [Port(sim, f"h{i}") for i in range(num_ports)]
        got = {}
        for index, host in enumerate(hosts):
            host.connect(switch.external_port(index))
            host.attach(
                lambda port, packet, size, when, index=index: got.setdefault(index, packet)
            )
        copies = []
        packet_copy = Packet.copy
        monkeypatch.setattr(
            Packet, "copy", lambda self: copies.append(self) or packet_copy(self)
        )
        frame = make_udp(dst_mac="02:00:00:00:00:77", payload=b"flood me")
        frame.meta["trace_id"] = 5
        pristine = copy.deepcopy(frame)
        hosts[ingress].send(frame)
        sim.run()
        assert sorted(got) == [i for i in range(num_ports) if i != ingress]
        assert switch.flooded.packets == 1
        assert len(copies) == num_ports - 2
        delivered = list(got.values())
        for packet in delivered:
            assert packet.headers == pristine.headers
            assert packet.payload == pristine.payload and packet.meta == pristine.meta
        # No two ports share a Packet, a Header, a header list or a meta dict.
        for attribute in (id, lambda p: id(p.headers), lambda p: id(p.meta)):
            assert len({attribute(packet) for packet in delivered}) == len(delivered)
        headers = [id(header) for packet in delivered for header in packet.headers]
        assert len(set(headers)) == len(headers)
        # The frame that came in left through the last egress port.
        assert got[max(got)] is frame

    def test_flood_copies_leave_in_port_order_at_the_same_instant(self):
        sim = Simulator()
        switch = LegacySwitch(sim, "sw", num_ports=4)
        order = []
        for index in range(4):
            port = Port(sim, f"h{index}")
            port.connect(switch.external_port(index))
            port.attach(
                lambda p, packet, size, when, index=index: order.append((index, when))
            )
        switch._forward(2, make_udp(dst_mac="02:00:00:00:00:77"), 42, sim.now)
        sim.run()
        assert [index for index, _when in order] == [0, 1, 3]
        assert len({when for _index, when in order}) == 1
        assert order[0][1] > SWITCH_PIPELINE_LATENCY_S


# ----------------------------------------------------------------------
# Header: the abstract-method contract, held at class definition
# ----------------------------------------------------------------------
class TestHeaderContract:
    @pytest.mark.parametrize("missing", ["header_len", "pack", "unpack"])
    def test_a_subclass_missing_a_method_is_refused_when_defined(self, missing):
        body = {
            "header_len": property(lambda self: 0),
            "pack": lambda self: b"",
            "unpack": classmethod(lambda cls, data, offset: (cls(), 0)),
        }
        del body[missing]
        with pytest.raises(TypeError, match=missing):
            type("Partial", (Header,), body)

    def test_a_complete_subclass_and_its_subclasses_are_accepted(self):
        class Complete(Header):
            __slots__ = ()
            header_len = property(lambda self: 0)

            def pack(self):
                return b""

            @classmethod
            def unpack(cls, data, offset):
                return cls(), 0

        class Derived(Complete):  # inherits all three: still complete
            __slots__ = ()

        assert Derived().copy() == Derived() and Derived.unpack(b"", 0)[1] == 0

    def test_header_is_a_plain_class(self):
        assert type(Header) is type
        with pytest.raises(NotImplementedError):
            Header().pack()
        with pytest.raises(NotImplementedError):
            Record().copy()  # every subclass gets a generated one


# ----------------------------------------------------------------------
# The compiled lane's build-time decisions == their per-frame definitions
# ----------------------------------------------------------------------
class Keyless(PPEApplication):
    """No ``flow_key`` of its own: the base hook opts every frame out."""

    name = "keyless"

    def pipeline_spec(self):
        return PipelineSpec(
            name=self.name, stages=[Stage("parse", StageKind.PARSER, {"header_bytes": 14})]
        )

    def process(self, packet, ctx):
        return Verdict.PASS


class Keyed(Keyless):
    name = "keyed"

    def flow_key(self, packet):
        udp = packet.udp
        return None if udp is None else udp.dport


def keyed_later():
    """A class given ``flow_key`` after its definition, before any engine."""

    class Late(Keyless):
        name = "late"

    Late.flow_key = lambda self, packet: len(packet.headers)
    return Late()


def fast_engine(app, sim=None, flow_cache=True):
    return PacketProcessingEngine(
        sim or Simulator(),
        app,
        TimingSpec(64, 156.25e6),
        app.pipeline_spec().pipeline_depth,
        flow_cache=FlowCache(name="cache") if flow_cache else None,
    )


class TestFlowKeyDecision:
    @pytest.mark.parametrize(
        "make_app", [Keyless, Keyed, keyed_later], ids=["no-override", "override", "late"]
    )
    def test_the_decision_answers_what_flow_key_answers(self, make_app):
        app = make_app()
        engine = fast_engine(app)
        decided = engine._flow_key
        assert (decided is None) == (make_app is Keyless)
        for packet in (make_udp(dport=53), make_tcp(), Packet([], b"raw")):
            expected = app.flow_key(packet)
            assert (None if decided is None else decided(packet)) == expected

    def test_no_cache_means_no_key(self):
        assert fast_engine(Keyed(), flow_cache=False)._flow_key is None


def hand_over(engine, records):
    """A deliver event meeting its record."""
    engine._handovers.append(records)
    engine._hand_over_next()


class TestInlineLatencyBinning:
    @pytest.mark.parametrize(
        "deliver",
        [hand_over, PacketProcessingEngine._deliver_frames],
        ids=["deliver-event", "cut"],
    )
    @given(st.lists(st.integers(0, 4_000_000), min_size=1, max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_deliveries_bin_as_histogram_add_does(self, deliver, latencies, data):
        engine = fast_engine(Keyless())
        bounds = engine.latency_ns.bounds
        # Values equal to a bound land above it under bisect_right.
        latencies += data.draw(st.lists(st.sampled_from([int(b) for b in bounds])))
        model = Histogram.exponential(start=50.0, factor=2.0, count=16)
        done = []
        records = []
        for latency in latencies:
            model.add(latency)
            # int(1.0 * 1e9) is exact, so each record's latency is ``latency``.
            records.append(
                (make_udp(), Verdict.PASS, (), 60, lambda *a: done.append(a), 10**9 - latency, 1.0)
            )
        deliver(engine, records)
        assert engine.latency_ns.counts == model.counts
        assert engine.latency_ns.total == model.total == len(done) == len(latencies)


class TestShellDirections:
    @pytest.mark.parametrize("kind", list(ShellKind))
    @pytest.mark.parametrize("filtered", list(Direction))
    def test_the_module_processes_what_its_shell_processes(self, kind, filtered):
        shell = ShellSpec(kind=kind, filtered_direction=filtered)
        module = FlexSFPModule(
            Simulator(), "dut", Deployment.solo(create_app("passthrough")), shell=shell
        )
        for direction in Direction:
            assert (direction in module._ppe_directions) == shell.processes(direction)


def mgmt(payload=b""):
    return Packet([Ethernet(ethertype=EtherType.FLEXSFP_MGMT)], payload)


arbiter_frames = st.one_of(
    frames,
    st.just(mgmt()),
    st.builds(lambda vid: vlan_push(mgmt(b"tagged"), vid), st.integers(1, 4094)),
    st.just(mgmt_frame(MgmtMessage.control(MgmtOp.ACK, 1, ok=True), KEY, 1, 2)),
)


class TestArbiterClassify:
    @given(st.lists(st.tuples(arbiter_frames, st.none() | st.integers(0, 1518)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_classify_is_is_mgmt_frame_plus_the_counts(self, offered):
        arbiter = Arbiter("arb")
        to_cpu, to_data = Counter("cpu"), Counter("data")
        for packet, size in offered:
            kind = arbiter.classify(packet, size)
            counted = packet.wire_len if size is None else size
            if is_mgmt_frame(packet):
                assert kind == "cpu"
                to_cpu.count(counted)
            else:
                assert kind == "data"
                to_data.count(counted)
        assert (arbiter.to_cpu.packets, arbiter.to_cpu.bytes) == (to_cpu.packets, to_cpu.bytes)
        assert (arbiter.to_data.packets, arbiter.to_data.bytes) == (
            to_data.packets,
            to_data.bytes,
        )


# ----------------------------------------------------------------------
# The drains keep their invariants with the per-frame step folded in
# ----------------------------------------------------------------------
class TestTracedFrameInAMultiFrameDrain:
    def test_only_the_traced_frame_takes_the_traced_path(self, monkeypatch):
        spec = ScenarioSpec(
            kind="nfv-chain", engine="compiled", traffic=TrafficProfile(10e9, 60, 50e-6)
        )
        untraced = spec.run()
        traced_frames, drains = [], []
        apply_traced = PacketProcessingEngine._apply_traced
        run_due = PacketProcessingEngine._run_due

        def counting(engine, packet, *rest):
            traced_frames.append(packet)
            return apply_traced(engine, packet, *rest)

        def recording(engine, *args):
            deliveries = run_due(engine, *args)
            traced = [d[0] for d in deliveries if engine.tracer.is_traced(d[0])]
            drains.append((len(deliveries), traced))
            return deliveries

        monkeypatch.setattr(PacketProcessingEngine, "_apply_traced", counting)
        monkeypatch.setattr(PacketProcessingEngine, "_run_due", recording)
        run = replace(spec, trace_packets=1).run()
        (packet,) = traced_frames  # its drain-mates all took the untraced path
        ((size, traced),) = [drain for drain in drains if drain[1]]
        assert traced == [packet] and size > 1
        stages = run.tracer.stages(packet.meta[TRACE_ID_META])
        assert "ppe" in stages and "app" in stages
        leaves = {
            name: value
            for name, value in semantic_metrics(run.metrics()).items()
            if not name.startswith("trace.")
        }
        assert leaves == semantic_metrics(untraced.metrics())


class Unverdicted(Keyless):
    name = "unverdicted"

    def process(self, packet, ctx):
        return "pass"


class KeyedUnverdicted(Unverdicted):
    """Recorded into a recipe, so its replay is what returns no Verdict."""

    def flow_key(self, packet):
        return 0


class TestUnverdictedAppIsRefused:
    @pytest.mark.parametrize("frames_in_drain", [1, 3])
    @pytest.mark.parametrize("app_cls", [Unverdicted, KeyedUnverdicted])
    @pytest.mark.parametrize("engine_cls", [PacketProcessingEngine, ReferenceEngine])
    def test_every_drain_names_the_app(self, engine_cls, app_cls, frames_in_drain):
        sim = Simulator()
        app = app_cls()
        fast = engine_cls is PacketProcessingEngine
        engine = (
            fast_engine(app, sim)
            if fast
            else ReferenceEngine(
                sim, app, TimingSpec(64, 156.25e6), app.pipeline_spec().pipeline_depth
            )
        )
        done = []
        if fast:  # one flush: the drain event finds every frame due at once
            engine.flush_begin()
        for _ in range(frames_in_drain):
            engine.submit(
                make_udp(), Direction.EDGE_TO_LINE, lambda *a: done.append(a), 0.0, 60
            )
        if fast:
            engine.flush_end()
        with pytest.raises(SimulationError, match="'unverdicted'.*instead of a Verdict"):
            sim.run()
        assert done == []


# ----------------------------------------------------------------------
# One call per app decision: ``PPEApplication.count``, the INT stamp's
# records built by slot stores, the sanitizer's inline scans and the fast
# engine's context, each against the code it replaced
# ----------------------------------------------------------------------
@st.composite
def stacks(draw):
    """Frames with VLAN tags, IPv4 options, an INT shim with hops, IPv6,
    tunnels, or no Ethernet in front (or none at all)."""
    payload = draw(st.binary(max_size=48))
    packet = draw(
        st.sampled_from(
            [make_udp(payload=payload), make_tcp(payload=payload), make_udp6(payload=payload)]
        )
    )
    if packet.ipv4 is not None:
        packet.ipv4.options = draw(st.sampled_from([b"", b"\x01" * 4, b"\x01" * 40]))
    for _ in range(draw(st.integers(0, 2))):
        vlan_push(packet, draw(st.integers(1, 4094)))
    if draw(st.booleans()):
        hops = [INTHop(i, i, i, i) for i in range(draw(st.integers(0, 4)))]
        eth = packet.eth
        shim = INTShim(eth.ethertype, draw(st.integers(max(len(hops), 1), 15)), hops)
        eth.ethertype = EtherType.INT_SHIM
        packet.insert_after(eth, shim)
    tunnel = draw(st.sampled_from(["none", "vxlan", "gre", "bridged", "bare"]))
    if tunnel == "vxlan":
        vxlan_encap(packet, 7, "192.0.2.1", "192.0.2.2")
    elif tunnel == "gre" and packet.ipv4 is not None:
        gre_encap(packet, "192.0.2.1", "192.0.2.2", key=5)
    elif tunnel == "bridged":  # GRE/IPv4 in front: Ethernet is not first
        packet.headers[:0] = [
            IPv4("192.0.2.1", "192.0.2.2", proto=IPProto.GRE),
            GRE(protocol=ETHERTYPE_TRANSPARENT_ETHERNET),
        ]
    elif tunnel == "bare":  # no Ethernet anywhere
        del packet.headers[0]
    return packet


def app_contexts():
    """Contexts whose queue depth may exceed the 16-bit hop field."""
    return st.builds(
        make_ctx,
        direction=st.sampled_from(list(Direction)),
        time_ns=st.integers(0, (1 << 64) - 1),
        device_id=st.integers(0, 0xFFFF),
        queue_depth=st.integers(0, 1 << 20),
    )


class TestCountInOneCall:
    @settings(max_examples=100, deadline=None)
    @given(frames=st.lists(st.tuples(st.sampled_from(["a", "b"]), stacks()), max_size=6))
    def test_count_moves_the_counter_as_counter_count_does(self, frames):
        counted, reference = Keyless(), Keyless()
        for name, packet in frames:
            assert (name in counted.counters) == (name in reference.counters)
            counted.count(name, packet)
            reference.counter(name).count(packet.wire_len)
        assert counted.metric_values() == reference.metric_values()
        assert [c.name for c in counted.counters.values()] == [
            c.name for c in reference.counters.values()
        ]

    def test_the_recorder_sees_the_bump_and_undoes_it(self):
        class Counting(Keyless):
            def process(self, packet, ctx):
                self.count("seen", packet)
                return Verdict.PASS

        app = Counting()
        recipe = record_recipe(app, make_udp(payload=b"x" * 10), Direction.EDGE_TO_LINE)
        assert recipe.counters == ("seen",)
        assert app.counters == {}  # the probe's leaf goes again


class ValidatingInbandTelemetry(InbandTelemetry):
    """The INT source and transit as they were: validating constructors,
    ``packet.eth`` / ``get`` / ``insert_after``, the direction's value."""

    def process(self, packet, ctx):
        if self.only_direction is not None and ctx.direction.value != self.only_direction:
            return Verdict.PASS
        if self.role == "source":
            eth = packet.eth
            if eth is None or packet.get(INTShim) is not None:
                return Verdict.PASS
            shim = INTShim(next_ethertype=eth.ethertype, max_hops=self.max_hops)
            shim.push_hop(self._validated_hop(ctx))
            eth.ethertype = EtherType.INT_SHIM
            packet.insert_after(eth, shim)
            self.counter("inserted").count(packet.wire_len)
            return Verdict.PASS
        shim = packet.get(INTShim)
        if shim is None:
            return Verdict.PASS
        if shim.push_hop(self._validated_hop(ctx)):
            self.counter("pushed").count(packet.wire_len)
        else:
            self.counter("stack_full").count(packet.wire_len)
        return Verdict.PASS

    @staticmethod
    def _validated_hop(ctx):
        return INTHop(
            device_id=ctx.device_id,
            queue_depth=min(ctx.queue_depth, 0xFFFF),
            latency_ns=0,
            ingress_ts_ns=ctx.time_ns,
        )


def stamp_both(params, packet, ctx, recording=False):
    """[(outcome, counters)] of the app, then of its validating model, each
    run on its own copy of ``packet``: the outcome is the frame, or the
    ``ConfigError`` message.  With ``recording`` the app's copy carries the
    recipe recorder's header classes (``isinstance`` holds, ``type`` not)."""
    results = []
    for cls in (InbandTelemetry, ValidatingInbandTelemetry):
        app, frame = cls(**params), packet.copy()
        if recording and cls is InbandTelemetry:
            for header in frame.headers:
                header.__class__ = flowcache._recording(type(header))
        try:
            assert app.process(frame, copy.copy(ctx)) is Verdict.PASS
            outcome = frame
        except ConfigError as exc:
            outcome = f"ConfigError: {exc}"
        finally:
            for header in frame.headers:
                if type(header).__base__ is not Header:
                    object.__setattr__(header, "__class__", type(header).__base__)
            flowcache._writes.clear()
        results.append((outcome, app.metric_values()))
    return results


int_params = st.fixed_dictionaries(
    {
        "role": st.sampled_from(["source", "transit"]),
        "max_hops": st.integers(1, 15),
        "only_direction": st.sampled_from(DIRECTIONS),
    }
)


class TestInbandStampBySlotStores:
    @settings(max_examples=300, deadline=None)
    @given(params=int_params, packet=stacks(), ctx=app_contexts(), recording=st.booleans())
    def test_source_and_transit_equal_the_validating_constructors(
        self, params, packet, ctx, recording
    ):
        (ours, counted), (model, model_counted) = stamp_both(params, packet, ctx, recording)
        assert ours.to_bytes() == model.to_bytes()
        assert counted == model_counted

    @settings(max_examples=200, deadline=None)
    @given(
        params=int_params,
        packet=stacks(),
        ctx=app_contexts(),
        field=st.sampled_from(["device_id", "time_ns", "ethertype"]),
        bad=st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 64)),
    )
    def test_an_out_of_range_value_still_raises(self, params, packet, ctx, field, bad):
        """A ``device_id`` past 16 bits, a ``time_ns`` below 0 or at 2**64
        and up, and a stored ``ethertype`` past 16 bits each raise the
        ``ConfigError`` the constructors raised, whenever a record is built."""
        if field == "ethertype":
            if packet.eth is None:
                return
            packet.eth.ethertype = bad
        else:
            setattr(ctx, field, bad)
        (ours, counted), (model, model_counted) = stamp_both(params, packet, ctx)
        assert counted == model_counted
        if isinstance(model, str):
            assert ours == model
        else:
            assert (ours.headers, ours.payload) == (model.headers, model.payload)
        has_shim = packet.get(INTShim) is not None
        builds = (
            packet.eth is not None and not has_shim
            if params["role"] == "source"
            else has_shim and field != "ethertype"
        )
        if builds and params["only_direction"] in (None, ctx.direction.value):
            name = {"time_ns": "ingress_ts_ns", "ethertype": "next_ethertype"}.get(field, field)
            assert ours == f"ConfigError: {name} out of range for " + (
                f"64-bit field: {bad}" if name == "ingress_ts_ns" else f"16-bit field: {bad}"
            )

    def test_a_negative_queue_depth_still_raises(self):
        (ours, _), (model, _) = stamp_both({"role": "source"}, make_udp(), make_ctx(queue_depth=-1))
        assert ours == model == "ConfigError: queue_depth out of range for 16-bit field: -1"


class ValidatingSanitizer(PacketSanitizer):
    """The sanitizer as it was: the martian prefixes tested as written,
    and ``get(UDP)`` on every frame that reaches the runt check."""

    def process(self, packet, ctx):
        ip = packet.ipv4
        if ip is None:
            return Verdict.PASS
        if self.verify_checksums and ip.checksum and not ip.verify_checksum():
            self.counter("bad_checksum").count(packet.wire_len)
            return Verdict.DROP
        if self.drop_expired_ttl and ip.ttl == 0:
            self.counter("expired_ttl").count(packet.wire_len)
            return Verdict.DROP
        if self.drop_martians and any(
            ip.src >> (32 - length) == ip_to_int(prefix) >> (32 - length)
            for prefix, length in DEFAULT_MARTIANS
        ):
            self.counter("martian").count(packet.wire_len)
            return Verdict.DROP
        udp = packet.get(UDP)
        if udp is not None and len(packet.payload) < self.min_udp_payload:
            self.counter("runt_payload").count(packet.wire_len)
            return Verdict.DROP
        if self.strip_ipv4_options and ip.options:
            ip.options = b""
            self.counter("options_stripped").count(packet.wire_len)
        self.counter("clean").count(packet.wire_len)
        return Verdict.PASS


class TestSanitizerInlineScans:
    @settings(max_examples=200, deadline=None)
    @given(
        packet=stacks(),
        src=st.sampled_from([0x01020304, 0x7F000001, 0xF0000001, 0x0A000001, 0]),
        ttl=st.sampled_from([0, 1, 64]),
        min_udp_payload=st.sampled_from([0, 16, 64]),
        drop_martians=st.booleans(),
    )
    def test_the_sanitizer_equals_its_model(self, packet, src, ttl, min_udp_payload, drop_martians):
        if packet.ipv4 is not None:
            packet.ipv4.src, packet.ipv4.ttl = src, ttl
        params = {"min_udp_payload": min_udp_payload, "drop_martians": drop_martians}
        results = []
        for cls in (PacketSanitizer, ValidatingSanitizer):
            app, frame = cls(**params), packet.copy()
            verdict = app.process(frame, make_ctx())
            results.append((verdict, frame.to_bytes(), app.metric_values()))
        assert results[0] == results[1]


class CtxCapture(Keyless):
    def process(self, packet, ctx):
        self.seen = (ctx.time_ns, ctx.direction, ctx.device_id, ctx.queue_depth)
        ctx.emit(make_udp(), ctx.direction.reverse)
        return Verdict.PASS


class TestFastEngineContext:
    def test_the_fast_engine_hands_the_oracle_s_context(self):
        seen = []
        for engine_cls in (ReferenceEngine, PacketProcessingEngine):
            sim, app = Simulator(), CtxCapture()
            engine = engine_cls(
                sim, app, TimingSpec(64, 156.25e6), app.pipeline_spec().pipeline_depth,
                device_id=7,
            )
            done = []
            engine.submit(make_udp(), Direction.LINE_TO_EDGE, lambda *a: done.append(a), 0.0, 60)
            sim.run()
            (emitted,) = done[0][2]
            seen.append((app.seen, emitted[1]))
        assert seen[0] == seen[1]
        assert seen[0][0][1:3] == (Direction.LINE_TO_EDGE, 7)
