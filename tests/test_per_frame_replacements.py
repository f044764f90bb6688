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
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import int_to_ip
from repro.core.mgmt import MAGIC, MgmtMessage, MgmtOp, mgmt_frame
from repro.errors import ControlPlaneError
from repro.fleet import FleetController
from repro.nfv import SteeringMatch, TenantSpec
from repro.nfv.crossbar import Crossbar
from repro.packet import (
    ARP,
    Ethernet,
    EtherType,
    Header,
    Packet,
    make_tcp,
    make_udp,
    make_udp6,
    vlan_push,
)
from repro.packet.base import Record
from repro.sim import Port, Simulator
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
)  # fmt: skip


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
