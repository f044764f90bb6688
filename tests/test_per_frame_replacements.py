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
"""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import int_to_ip
from repro.apps import create_app
from repro.artifact.diff import semantic_metrics
from repro.core import Direction, PacketProcessingEngine, ReferenceEngine, Verdict
from repro.core.arbiter import Arbiter, is_mgmt_frame
from repro.core.flowcache import FlowCache
from repro.core.mgmt import MAGIC, MgmtMessage, MgmtOp, mgmt_frame
from repro.core.module import FlexSFPModule
from repro.core.ppe import PPEApplication
from repro.core.shells import ShellKind, ShellSpec
from repro.errors import ControlPlaneError, SimulationError
from repro.fleet import FleetController
from repro.fpga import TimingSpec
from repro.hls.ir import PipelineSpec, Stage, StageKind
from repro.nfv import Deployment, SteeringMatch, TenantSpec
from repro.nfv.crossbar import Crossbar
from repro.obs.scenario import ScenarioSpec, TrafficProfile
from repro.obs.trace import TRACE_ID_META
from repro.packet import (
    ARP,
    UDP,
    Ethernet,
    EtherType,
    Header,
    Packet,
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
