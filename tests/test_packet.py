"""Packet container: parsing, serialization offload, mutation helpers."""

import pytest

from repro.errors import ParseError, SerializationError
from repro.packet import (
    GRE,
    ICMP,
    INTShim,
    IPv4,
    Packet,
    UDP,
    VLAN,
    VXLAN,
    Ethernet,
    EtherType,
    gre_encap,
    internet_checksum,
    l4_checksum,
    make_dns_query,
    make_icmp_echo,
    make_tcp,
    make_udp,
    make_udp6,
    pad_to_min,
    pseudo_header_v4,
    vlan_pop,
    vlan_push,
    vxlan_encap,
)


class TestRoundtrip:
    def test_udp4(self):
        packet = make_udp(payload=b"hello world")
        parsed = Packet.parse(packet.to_bytes())
        assert [h.name for h in parsed] == ["ethernet", "ipv4", "udp"]
        assert parsed.payload == b"hello world"

    def test_tcp4(self):
        parsed = Packet.parse(make_tcp(payload=b"GET /").to_bytes())
        assert parsed.tcp is not None and parsed.payload == b"GET /"

    def test_udp6(self):
        parsed = Packet.parse(make_udp6(payload=b"six").to_bytes())
        assert parsed.ipv6 is not None and parsed.payload == b"six"

    def test_icmp(self):
        parsed = Packet.parse(make_icmp_echo().to_bytes())
        icmp = parsed.get(ICMP)
        assert icmp is not None and icmp.icmp_type == ICMP.ECHO_REQUEST

    def test_double_vlan(self):
        packet = make_udp()
        vlan_push(packet, 100)
        vlan_push(packet, 200, service=True)
        parsed = Packet.parse(packet.to_bytes())
        tags = parsed.get_all(VLAN)
        assert [t.vid for t in tags] == [200, 100]
        assert parsed.eth.ethertype == EtherType.QINQ

    def test_unknown_ethertype_keeps_payload(self):
        packet = Packet([Ethernet(ethertype=0x1234)], b"\x01\x02\x03")
        parsed = Packet.parse(packet.to_bytes())
        assert len(parsed.headers) == 1
        assert parsed.payload == b"\x01\x02\x03"

    def test_unknown_ip_proto_keeps_payload(self):
        packet = Packet(
            [Ethernet(), IPv4("1.1.1.1", "2.2.2.2", proto=132)], b"sctp-ish"
        )
        parsed = Packet.parse(packet.to_bytes())
        assert parsed.payload == b"sctp-ish"


class TestChecksumOffload:
    def test_ipv4_checksum_filled(self):
        packet = make_udp(payload=b"x")
        packet.to_bytes()
        assert packet.ipv4.verify_checksum()

    def test_udp_checksum_valid(self):
        packet = make_udp(payload=b"payload")
        packet.to_bytes()
        ip, udp = packet.ipv4, packet.udp
        segment = udp.pack() + packet.payload
        pseudo = pseudo_header_v4(ip.src, ip.dst, ip.proto, len(segment))
        assert l4_checksum(pseudo, segment) == 0

    def test_lengths_filled(self):
        packet = make_udp(payload=b"1234567890")
        packet.to_bytes()
        assert packet.udp.length == 8 + 10
        assert packet.ipv4.total_length == 20 + 8 + 10

    def test_icmp_checksum_valid(self):
        packet = make_icmp_echo(payload=b"data")
        packet.to_bytes()
        icmp = packet.get(ICMP)
        assert internet_checksum(icmp.pack() + packet.payload) == 0

    def test_no_fill_preserves_fields(self):
        packet = make_udp(payload=b"x")
        packet.udp.checksum = 0xDEAD
        raw = packet.to_bytes(fill=False)
        assert packet.udp.checksum == 0xDEAD
        assert raw  # still serializes

    def test_l4_without_ip_rejected(self):
        packet = Packet([Ethernet(), UDP(1, 2)], b"")
        with pytest.raises(SerializationError):
            packet.to_bytes()

    def test_inner_checksums_of_tunnel(self):
        packet = gre_encap(make_udp(payload=b"inner"), "9.9.9.9", "8.8.8.8")
        packet.to_bytes()
        inner_ip = packet.get(IPv4, 1)
        udp = packet.udp
        segment = udp.pack() + packet.payload
        pseudo = pseudo_header_v4(inner_ip.src, inner_ip.dst, inner_ip.proto, len(segment))
        assert l4_checksum(pseudo, segment) == 0


class TestMutation:
    def test_vlan_push_pop_inverse(self):
        packet = make_udp(payload=b"x")
        before = packet.to_bytes()
        vlan_push(packet, 42)
        vlan_pop(packet)
        assert packet.to_bytes() == before

    def test_vlan_pop_untagged_noop(self):
        packet = make_udp()
        before = packet.to_bytes()
        vlan_pop(packet)
        assert packet.to_bytes() == before

    def test_insert_before_after_remove(self):
        packet = make_udp()
        ip = packet.ipv4
        tag = VLAN(vid=5)
        packet.insert_before(ip, tag)
        assert packet.headers[1] is tag
        packet.remove(tag)
        assert packet.get(VLAN) is None

    def test_remove_foreign_header_rejected(self):
        packet = make_udp()
        with pytest.raises(SerializationError):
            packet.remove(VLAN(vid=1))

    def test_copy_is_deep_for_headers(self):
        packet = make_udp()
        clone = packet.copy()
        clone.ipv4.src = 0x01010101
        assert packet.ipv4.src != clone.ipv4.src

    def test_copy_preserves_meta(self):
        packet = make_udp()
        packet.meta["k"] = 1
        assert packet.copy().meta == {"k": 1}


class TestTunnelsEndToEnd:
    def test_vxlan_roundtrip(self):
        inner = make_udp(src_ip="172.16.0.1", dst_ip="172.16.0.2", payload=b"inner!")
        packet = vxlan_encap(inner, 7, "192.0.2.1", "192.0.2.2")
        parsed = Packet.parse(packet.to_bytes())
        assert parsed.get(VXLAN).vni == 7
        assert parsed.get(IPv4, 1).src_ip == "172.16.0.1"
        assert parsed.get(Ethernet, 1) is not None

    def test_gre_key_roundtrip(self):
        packet = gre_encap(make_tcp(), "192.0.2.1", "192.0.2.2", key=99)
        parsed = Packet.parse(packet.to_bytes())
        assert parsed.get(GRE).key == 99



class TestNestingLimit:
    """Every tag, shim and tunnel is one nesting level: a frame of stacked
    tags must fail as a :class:`ParseError`, not a ``RecursionError``."""

    def test_two_thousand_stacked_tags_are_a_parse_error(self):
        eth = Ethernet(ethertype=EtherType.VLAN).pack()
        tag = VLAN(vid=1, ethertype=EtherType.VLAN).pack()
        frame = eth + tag * 2000
        assert len(frame) <= 8 * 1024
        with pytest.raises(ParseError, match="nesting too deep"):
            Packet.parse(frame)

    def test_three_thousand_stacked_shims_are_a_parse_error(self):
        eth = Ethernet(ethertype=EtherType.INT_SHIM).pack()
        shim = INTShim(next_ethertype=EtherType.INT_SHIM).pack()
        with pytest.raises(ParseError, match="nesting too deep"):
            Packet.parse(eth + shim * 3000)

    def test_stacked_ip_in_ip_is_a_parse_error(self):
        inner = IPv4(proto=4, total_length=20).pack()
        frame = Ethernet().pack() + inner * 50
        with pytest.raises(ParseError, match="nesting too deep"):
            Packet.parse(frame)

    def test_qinq_with_an_int_shim_still_parses(self):
        packet = make_udp(payload=b"data")
        vlan_push(packet, vid=20)
        vlan_push(packet, vid=10, service=True)
        packet.insert_after(packet.get(VLAN, 1), INTShim(next_ethertype=EtherType.IPV4))
        packet.get(VLAN, 1).ethertype = EtherType.INT_SHIM
        parsed = Packet.parse(packet.to_bytes())
        names = [h.name for h in parsed.headers]
        assert names == ["ethernet", "vlan", "vlan", "int_shim", "ipv4", "udp"]
        assert parsed.payload == b"data" and parsed.headers == packet.headers

    def test_eight_levels_parse_and_a_ninth_is_refused(self):
        def tagged(levels):
            packet = make_udp()
            for _ in range(levels):
                vlan_push(packet, vid=levels)
            return packet.to_bytes()

        assert len(Packet.parse(tagged(8)).get_all(VLAN)) == 8
        with pytest.raises(ParseError):
            Packet.parse(tagged(9))

class TestIntrospection:
    def test_five_tuple_v4(self):
        packet = make_udp(src_ip="10.0.0.1", dst_ip="10.0.0.2", sport=7, dport=8)
        assert packet.five_tuple() == (0x0A000001, 0x0A000002, 17, 7, 8)

    def test_five_tuple_v6(self):
        packet = make_udp6(sport=1, dport=2)
        tuple5 = packet.five_tuple()
        assert tuple5 is not None and tuple5[3:] == (1, 2)

    def test_five_tuple_non_ip(self):
        assert Packet([Ethernet()], b"").five_tuple() is None

    def test_dns_helper(self):
        message = Packet.parse(make_dns_query("example.com").to_bytes()).dns()
        assert message.questions[0].qname == "example.com"

    def test_dns_helper_non_dns(self):
        assert make_udp(dport=80).dns() is None

    def test_wire_len(self):
        packet = make_udp(payload=b"12345")
        assert packet.wire_len == 14 + 20 + 8 + 5

    def test_pad_to_min(self):
        packet = pad_to_min(make_udp())
        assert packet.wire_len == 60

    def test_get_indexed(self):
        packet = gre_encap(make_udp(), "1.1.1.1", "2.2.2.2")
        assert packet.get(IPv4, 0).src_ip == "1.1.1.1"
        assert packet.get(IPv4, 1).src_ip == "10.0.0.1"
        assert packet.get(IPv4, 2) is None
