"""Property: a recorded recipe replays ``process``, with no engine in sight.

:func:`~repro.core.flowcache.record_recipe` runs an application's
``process`` once on a copy of a flow's first frame and returns the
:class:`~repro.core.flowcache.FlowRecipe` that replays that call.  The
flow cache is only sound if replaying that recipe on any later frame of
the same flow does exactly what ``process`` does to it.  For each bundled
application with a ``flow_key``, in both directions and over generated
table states, these tests record on a frame A and replay on a frame B
with the same key; the result must equal ``process`` on a copy of B in
wire bytes, verdict and every counter's packets/bytes delta.  B differs
from A in every field outside the key: IPv4 identification, TTL, payload,
and whatever else the key leaves free.

Two generated cases are pinned as explicit examples because a plausible
recorder gets them wrong: a load-balancer frame A whose ``eth.dst``
already is the chosen backend's MAC (a before/after diff sees no write)
and one VLAN key carrying IPv4, IPv6 and ARP inner ethertypes (a recorder
that stores the popped tag's ethertype stamps A's onto B).  The rest of
the file pins each call the recorder refuses.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ip_to_int, mac_to_int
from repro.apps import AclFirewall, DnsFilter, L4LoadBalancer, StaticNat, VlanTagger
from repro.apps.firewall import AclRule
from repro.apps.loadbalancer import Backend
from repro.core.flowcache import record_recipe
from repro.core.ppe import Direction, PPEApplication, PPEContext, Verdict
from repro.core.tables import ExactTable
from repro.hls import PipelineSpec, Stage, StageKind
from repro.packet import (
    ARP,
    EtherType,
    Ethernet,
    IPv4,
    Packet,
    make_tcp,
    make_udp,
    make_udp6,
    vlan_pop,
    vlan_push,
)

SRCS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
DSTS = ("203.0.113.1", "203.0.113.2", "198.51.100.7")
MACS = ("02:00:00:00:00:02", "02:aa:00:00:00:01", "02:aa:00:00:00:02")
BACKENDS = (
    Backend("192.168.1.1", "02:aa:00:00:00:01"),
    Backend("192.168.1.2", "02:aa:00:00:00:02", weight=2),
)
VIDS = (100, 200, 300)

directions = st.sampled_from(list(Direction))
payloads = st.binary(max_size=48)


def outcome(app: PPEApplication, packet: Packet, run) -> tuple:
    """``(bytes, verdict, counter deltas)`` of ``run(packet)`` on ``app``."""
    before = app.metric_values()
    verdict = run(packet)
    after = app.metric_values()
    deltas = {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }
    return packet.to_bytes(), verdict, deltas


def check_replay(app: PPEApplication, direction: Direction, a: Packet, b: Packet):
    """Record on ``a``, replay on ``b``: equal to ``process`` on ``b``."""
    assert app.flow_key(a) == app.flow_key(b) is not None
    counters = app.metric_values()
    recipe = record_recipe(app, a, direction)
    assert recipe is not None
    # The probe leaves no trace: no counter moved, no leaf appeared.
    assert app.metric_values() == counters
    replayed = outcome(app, b.copy(), lambda p: recipe.apply(p, app))
    processed = outcome(
        app, b.copy(), lambda p: app.process(p, PPEContext(0, direction))
    )
    assert replayed == processed
    return recipe


@st.composite
def ipv4_frames(draw, src: str, dst: str, proto=None, sport=None, dport=None):
    """An IPv4 frame; every field not given is drawn."""
    proto = proto or draw(st.sampled_from(["udp", "tcp"]))
    make = make_udp if proto == "udp" else make_tcp
    frame = make(
        dst_mac=draw(st.sampled_from(MACS)),
        src_ip=src,
        dst_ip=dst,
        sport=draw(st.integers(1024, 1030)) if sport is None else sport,
        dport=draw(st.sampled_from([80, 443, 20_000])) if dport is None else dport,
        payload=draw(payloads),
    )
    frame.ipv4.identification = draw(st.integers(0, 0xFFFF))
    frame.ipv4.ttl = draw(st.integers(1, 255))
    return frame


def same_flow(draw, **fixed):
    """Two IPv4 frames A and B of one 5-tuple; ``fixed`` pins its fields."""
    flow = {
        "src": draw(st.sampled_from(SRCS)),
        "dst": draw(st.sampled_from(DSTS)),
        "proto": draw(st.sampled_from(["udp", "tcp"])),
        "sport": draw(st.integers(1024, 1030)),
        "dport": draw(st.sampled_from([80, 443, 20_000])),
    }
    flow.update(fixed)
    return draw(ipv4_frames(**flow)), draw(ipv4_frames(**flow))


# ----------------------------------------------------------------------
# Per-application cases: (app, direction, A, B)
# ----------------------------------------------------------------------
@st.composite
def nat_cases(draw):
    app = StaticNat(
        translate_reverse=draw(st.booleans()),
        miss_action=draw(st.sampled_from(["pass", "drop"])),
    )
    for src in draw(st.lists(st.sampled_from(SRCS), unique=True)):
        app.add_mapping(src, src.replace("10.0.0.", "198.51.100."))
    src = draw(st.sampled_from(SRCS + DSTS))
    dst = draw(st.sampled_from(SRCS + DSTS))
    # The NAT keys on the address pair only: ports and protocol vary too.
    return app, draw(directions), draw(ipv4_frames(src, dst)), draw(ipv4_frames(src, dst))


@st.composite
def firewall_cases(draw):
    app = AclFirewall(default_action=draw(st.sampled_from(["permit", "deny"])))
    rules = draw(
        st.lists(
            st.builds(
                AclRule,
                action=st.sampled_from(["permit", "deny"]),
                src=st.sampled_from([None, "10.0.0.0/30", "10.0.0.2"]),
                proto=st.sampled_from([None, 6, 17]),
                dport=st.sampled_from([None, 80, 443]),
                priority=st.integers(0, 3),
            ),
            max_size=4,
        )
    )
    app.install_ruleset(rules)
    if draw(st.booleans()):
        # Every non-IPv4 frame shares one key: IPv6 and ARP alike.
        non_ipv4 = st.one_of(
            st.builds(lambda p: make_udp6(payload=p), payloads), st.builds(arp_frame)
        )
        return app, draw(directions), draw(non_ipv4), draw(non_ipv4)
    return (app, draw(directions), *same_flow(draw))


@st.composite
def loadbalancer_cases(draw):
    app = L4LoadBalancer(ring_slots=draw(st.sampled_from([1, 4, 16])))
    app.add_service("203.0.113.1", 80, 6, list(BACKENDS))
    app.add_service("203.0.113.2", 443, 17, list(BACKENDS[:1]))
    vip = draw(
        st.sampled_from(
            [{}, {"dst": "203.0.113.1", "proto": "tcp", "dport": 80},
             {"dst": "203.0.113.2", "proto": "udp", "dport": 443}]
        )
    )
    a, b = same_flow(draw, **vip)
    backend = app.select_backend(a)
    if backend is not None and draw(st.booleans()):
        # A already carries the backend's MAC: the store changes nothing
        # on A, and must still land on B.
        a.eth.dst = mac_to_int(backend.mac)
    return app, draw(directions), a, b


@st.composite
def dnsfilter_cases(draw):
    app = DnsFilter(block_doh=draw(st.booleans()))
    for resolver in draw(st.lists(st.sampled_from(DSTS), unique=True)):
        app.add_doh_resolver(resolver)
    dst = draw(st.sampled_from(DSTS))
    dport = draw(st.sampled_from([80, 443]))
    # The key is (destination, destination port): the source varies too.
    a, b = (
        draw(ipv4_frames(draw(st.sampled_from(SRCS)), dst, dport=dport))
        for _ in range(2)
    )
    return app, draw(directions), a, b


def arp_frame() -> Packet:
    return Packet(
        [Ethernet("ff:ff:ff:ff:ff:ff", "02:00:00:00:00:01", EtherType.ARP), ARP()]
    )


@st.composite
def inner_frames(draw):
    """An untagged frame with an IPv4, IPv6 or ARP inner ethertype."""
    kind = draw(st.sampled_from(["ipv4", "ipv6", "arp"]))
    if kind == "ipv4":
        return draw(ipv4_frames(draw(st.sampled_from(SRCS)), draw(st.sampled_from(DSTS))))
    if kind == "ipv6":
        return make_udp6(payload=draw(payloads))
    return arp_frame()


def tagged(frame: Packet, vids, service: bool, pcp: int = 0) -> Packet:
    """``frame`` under ``vids``, outermost first; a two-tag stack's outer
    tag is a service tag when ``service``."""
    for depth, vid in enumerate(reversed(vids)):
        outer = depth == len(vids) - 1
        vlan_push(frame, vid, pcp=pcp, service=service and outer and len(vids) > 1)
    return frame


@st.composite
def vlan_cases(draw):
    app = VlanTagger(
        access_vid=draw(st.sampled_from(VIDS)),
        pcp=draw(st.integers(0, 7)),
        service_vid=draw(st.sampled_from([None, *VIDS])),
        drop_foreign=draw(st.booleans()),
    )
    vids = draw(st.lists(st.sampled_from(VIDS), max_size=3))
    # The key is the leading VIDs: the tag type, PCP and inner frame vary.
    a, b = (
        tagged(
            draw(inner_frames()), vids, draw(st.booleans()), pcp=draw(st.integers(0, 7))
        )
        for _ in range(2)
    )
    return app, draw(directions), a, b


CASES = {
    "nat": nat_cases(),
    "firewall": firewall_cases(),
    "loadbalancer": loadbalancer_cases(),
    "dnsfilter": dnsfilter_cases(),
    "vlan": vlan_cases(),
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_recorded_recipe_replays_process(name, data):
    app, direction, a, b = data.draw(CASES[name])
    check_replay(app, direction, a, b)


# ----------------------------------------------------------------------
# The two cases that bite
# ----------------------------------------------------------------------
def test_a_store_of_an_unchanged_value_lands_on_later_frames():
    """A already carries the chosen backend's MAC, B does not: the
    recipe holds the store, not a before/after diff of A."""
    app = L4LoadBalancer(ring_slots=1)
    app.add_service("203.0.113.1", 80, 6, [BACKENDS[0]])
    a = make_tcp(dst_mac=BACKENDS[0].mac, dst_ip="203.0.113.1", dport=80)
    b = make_tcp(dst_mac=MACS[0], dst_ip="203.0.113.1", dport=80)
    recipe = check_replay(app, Direction.EDGE_TO_LINE, a, b)
    assert ("eth", "dst", mac_to_int(BACKENDS[0].mac)) in recipe.mutations
    assert ("ipv4", "dst", ip_to_int(BACKENDS[0].ip)) in recipe.mutations


@pytest.mark.parametrize("service_vid", [None, 200])
@pytest.mark.parametrize("direction", list(Direction))
def test_one_vlan_key_carries_every_inner_ethertype(direction, service_vid):
    """The VLAN ops own ``eth.ethertype``: replay re-derives the inner
    ethertype from each frame, whichever A's was."""
    app = VlanTagger(access_vid=100, pcp=3, service_vid=service_vid)
    vids = [100] if service_vid is None else [200, 100]
    inners = (make_udp(payload=b"v4"), make_udp6(payload=b"v6"), arp_frame())
    for a in inners:
        for b in inners:
            a_tagged = tagged(a.copy(), vids, service_vid is not None)
            b_tagged = tagged(b.copy(), vids, service_vid is not None)
            check_replay(app, direction, a_tagged, b_tagged)
            check_replay(app, direction, a.copy(), b.copy())


def test_a_foreign_tag_pops_what_process_popped():
    """A QinQ frame whose service tag matches and customer tag does not:
    ``process`` pops one tag before it counts, so the recipe does too."""
    app = VlanTagger(access_vid=100, service_vid=200)
    a = tagged(make_udp(), [200, 300], True)
    b = tagged(make_udp6(), [200, 300], True)
    recipe = check_replay(app, Direction.LINE_TO_EDGE, a, b)
    assert recipe.ops == (("vlan_pop",),)
    assert recipe.counters == ("foreign_vid",)


# ----------------------------------------------------------------------
# Calls the recorder refuses: per-frame process, no cache entry
# ----------------------------------------------------------------------
class Probed(PPEApplication):
    """A one-stage application whose ``process`` is the test's ``body``."""

    name = "probed"

    def __init__(self, body) -> None:
        super().__init__()
        self.body = body
        self.scratch = ExactTable("scratch", 4)
        self.tables.register(self.scratch)

    def pipeline_spec(self) -> PipelineSpec:
        return PipelineSpec(
            name="probed", stages=[Stage("parse", StageKind.PARSER, {"header_bytes": 34})]
        )

    def process(self, packet, ctx):
        result = self.body(self, packet, ctx)
        return Verdict.PASS if result is None else result


def stamp(app, packet, ctx):
    packet.ipv4.identification = ctx.time_ns & 0xFFFF


def depth(app, packet, ctx):
    packet.ipv4.ttl = min(255, ctx.queue_depth)


def mirror(app, packet, ctx):
    ctx.emit(packet.copy(), ctx.direction)


def inner_write(app, packet, ctx):
    packet.headers[1].vid = 7  # a VLAN tag: no ``packet.<name>`` reaches it


def pad(app, packet, ctx):
    packet.payload += b"\x00" * 4


def encap(app, packet, ctx):
    packet.headers.insert(2, IPv4("192.0.2.1", "192.0.2.2", proto=4))


def retag(app, packet, ctx):
    packet.headers[1], packet.headers[2] = packet.headers[2], packet.headers[1]


def options(app, packet, ctx):
    packet.ipv4.options = b"\x01" * 4  # one header grows in place


def half_count(app, packet, ctx):
    app.counter("half").count(packet.wire_len // 2)


def table_write(app, packet, ctx):
    app.scratch.insert(packet.ipv4.src, 1)


def retype(app, packet, ctx):
    vlan_push(packet, 5)
    packet.eth.ethertype = EtherType.IPV4


def pop_retype(app, packet, ctx):
    vlan_pop(packet)
    packet.eth.ethertype = EtherType.ARP


def push_dei(app, packet, ctx):
    vlan_push(packet, 5)
    packet.headers[1].dei = 1


def push_mistyped(app, packet, ctx):
    vlan_push(packet, 5)
    packet.headers[1].ethertype = EtherType.ARP


def push_untyped(app, packet, ctx):
    vlan_push(packet, 5)
    vlan_push(packet, 6)
    packet.headers[1].ethertype = EtherType.IPV4


REFUSED = {
    "reads the clock": (stamp, make_udp()),
    "reads the queue depth": (depth, make_udp()),
    "emits a frame": (mirror, make_udp()),
    "writes an unreachable header": (inner_write, tagged(make_udp(), [100, 200], True)),
    "changes the payload": (pad, make_udp()),
    "inserts a header": (encap, make_udp()),
    "reorders tags": (retag, tagged(make_udp(), [100, 200], True)),
    "grows a header in place": (options, make_udp()),
    "counts another size": (half_count, make_udp()),
    "writes the tables": (table_write, make_udp()),
    "retypes under a pushed tag": (retype, make_udp()),
    "retypes after a pop": (pop_retype, tagged(make_udp(), [100], False)),
    "pushes a DEI tag": (push_dei, make_udp()),
    "pushes a tag that lost its ethertype": (push_mistyped, make_udp()),
    "encloses a tag in a non-tag ethertype": (push_untyped, make_udp()),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_recorder_refuses(case):
    body, frame = REFUSED[case]
    app = Probed(body)
    app.counter("seen").count(1)
    before = app.metric_values()
    original = frame.to_bytes()
    assert record_recipe(app, frame, Direction.EDGE_TO_LINE) is None
    # Refused or not, the probe leaves the frame and the counters alone.
    assert frame.to_bytes() == original
    assert app.metric_values() == before


def test_counter_bumps_and_stores_record_in_order():
    """Two bumps of one counter replay as two; the last store to a field
    wins; a counter the probe only created stays, as ``process`` leaves it."""

    def body(app, packet, ctx):
        app.counter("twice").count(packet.wire_len)
        app.counter("twice").count(packet.wire_len)
        app.counter("idle")
        packet.ipv4.ttl = 9
        packet.ipv4.ttl = 10
        packet.eth.ethertype = packet.eth.ethertype

    app = Probed(body)
    recipe = record_recipe(app, make_udp(), Direction.EDGE_TO_LINE)
    assert recipe.counters == ("twice", "twice")
    assert recipe.mutations == (("ipv4", "ttl", 10), ("eth", "ethertype", EtherType.IPV4))
    assert set(app.counters) == {"idle"}


def test_a_probe_exception_restores_and_propagates():
    def body(app, packet, ctx):
        app.counter("seen").count(packet.wire_len)
        raise RuntimeError("boom")

    app = Probed(body)
    frame = make_udp()
    with pytest.raises(RuntimeError, match="boom"):
        record_recipe(app, frame, Direction.EDGE_TO_LINE)
    assert app.counters == {}
