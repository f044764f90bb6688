"""Per-header pack/unpack symmetry and field validation."""

import copy
import pickle

import pytest

from repro.errors import ConfigError, ParseError, SerializationError
from repro.packet import (
    ARP,
    GRE,
    ICMP,
    INTHop,
    INTShim,
    IPv4,
    IPv6,
    TCP,
    TCPFlags,
    UDP,
    VLAN,
    VXLAN,
    Ethernet,
    EtherType,
    Header,
    Packet,
    internet_checksum,
    make_udp,
)
from repro.packet.base import fields_of


def roundtrip(header):
    raw = header.pack()
    parsed, consumed = type(header).unpack(memoryview(raw), 0)
    assert consumed == len(raw) == header.header_len
    assert parsed == header
    return parsed


class TestEthernet:
    def test_roundtrip(self):
        roundtrip(Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", EtherType.IPV6))

    def test_broadcast_multicast(self):
        assert Ethernet(dst="ff:ff:ff:ff:ff:ff").is_broadcast
        assert Ethernet(dst="01:00:5e:00:00:01").is_multicast
        assert not Ethernet(dst="02:00:00:00:00:01").is_multicast

    def test_mac_properties(self):
        eth = Ethernet("02:aa:bb:cc:dd:ee", "02:11:22:33:44:55")
        assert eth.dst_mac == "02:aa:bb:cc:dd:ee"
        assert eth.src_mac == "02:11:22:33:44:55"

    def test_truncated(self):
        with pytest.raises(ParseError):
            Ethernet.unpack(memoryview(b"\x00" * 13), 0)


class TestVlan:
    def test_roundtrip_full_tci(self):
        roundtrip(VLAN(vid=4094, pcp=7, dei=1, ethertype=EtherType.IPV4))

    def test_tci_packing(self):
        tag = VLAN(vid=0x123, pcp=5, dei=1)
        assert tag.tci == (5 << 13) | (1 << 12) | 0x123

    def test_field_validation(self):
        with pytest.raises(ConfigError):
            VLAN(vid=4096)
        with pytest.raises(ConfigError):
            VLAN(pcp=8)


class TestArp:
    def test_roundtrip(self):
        roundtrip(
            ARP(
                ARP.REPLY,
                sender_mac="02:00:00:00:00:01",
                sender_ip="10.0.0.1",
                target_mac="02:00:00:00:00:02",
                target_ip="10.0.0.2",
            )
        )


class TestIPv4:
    def test_roundtrip(self):
        roundtrip(
            IPv4(
                "10.1.2.3",
                "10.4.5.6",
                proto=6,
                ttl=17,
                dscp=46,
                ecn=1,
                identification=0xBEEF,
                flags=2,
                frag_offset=100,
                total_length=1500,
            )
        )

    def test_options_roundtrip(self):
        header = IPv4("1.2.3.4", "5.6.7.8", options=b"\x01\x01\x01\x00")
        parsed = roundtrip(header)
        assert parsed.options == b"\x01\x01\x01\x00"
        assert parsed.ihl == 6

    def test_checksum_cycle(self):
        header = IPv4("10.0.0.1", "10.0.0.2", total_length=40)
        header.checksum = internet_checksum(header.pack())
        assert header.verify_checksum()
        header.src = 0x01020304  # corrupt after checksumming
        assert not header.verify_checksum()

    def test_bad_version_rejected(self):
        raw = bytearray(IPv4("1.1.1.1", "2.2.2.2", total_length=20).pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(ParseError):
            IPv4.unpack(memoryview(bytes(raw)), 0)

    def test_misaligned_options_rejected(self):
        with pytest.raises(SerializationError):
            IPv4(options=b"\x01")

    def test_oversized_options_rejected(self):
        with pytest.raises(SerializationError):
            IPv4(options=b"\x00" * 44)


class TestIPv6:
    def test_roundtrip(self):
        roundtrip(
            IPv6(
                "2001:db8::1",
                "2001:db8::2",
                next_header=17,
                hop_limit=3,
                traffic_class=0xAB,
                flow_label=0xFFFFF,
                payload_length=64,
            )
        )

    def test_ip_properties(self):
        header = IPv6("2001:db8::1", "::1")
        assert header.src_ip == "2001:db8::1"
        assert header.dst_ip == "::1"

    def test_bad_version(self):
        raw = bytearray(IPv6().pack())
        raw[0] = 0x45
        with pytest.raises(ParseError):
            IPv6.unpack(memoryview(bytes(raw)), 0)


class TestTransport:
    def test_udp_roundtrip(self):
        roundtrip(UDP(53, 33333, length=30, checksum=0xABCD))

    def test_tcp_roundtrip_with_options(self):
        roundtrip(
            TCP(
                80,
                1024,
                seq=0xDEADBEEF,
                ack=0x01020304,
                flags=TCPFlags.SYN | TCPFlags.ACK,
                window=512,
                options=b"\x02\x04\x05\xb4",
            )
        )

    def test_tcp_bad_offset(self):
        raw = bytearray(TCP().pack())
        raw[12] = 4 << 4  # data offset below minimum
        with pytest.raises(ParseError):
            TCP.unpack(memoryview(bytes(raw)), 0)

    def test_icmp_roundtrip(self):
        roundtrip(ICMP(ICMP.ECHO_REQUEST, identifier=7, sequence=9))


class TestTunnels:
    def test_gre_plain(self):
        header = roundtrip(GRE(protocol=EtherType.IPV4))
        assert header.key is None and header.header_len == 4

    def test_gre_with_key_and_checksum(self):
        header = roundtrip(GRE(protocol=EtherType.IPV6, key=0xCAFEBABE, checksum_present=True))
        assert header.header_len == 12

    def test_gre_routing_rejected(self):
        raw = bytearray(GRE().pack())
        raw[0] |= 0x40  # routing present
        with pytest.raises(ParseError):
            GRE.unpack(memoryview(bytes(raw)), 0)

    def test_vxlan_roundtrip(self):
        assert roundtrip(VXLAN(vni=0xABCDEF)).vni == 0xABCDEF

    def test_vxlan_flag_required(self):
        raw = bytearray(VXLAN(1).pack())
        raw[0] = 0
        with pytest.raises(ParseError):
            VXLAN.unpack(memoryview(bytes(raw)), 0)


class TestINT:
    def test_shim_roundtrip(self):
        shim = INTShim(next_ethertype=EtherType.IPV4, max_hops=4)
        shim.push_hop(INTHop(1, 10, 100, 12345))
        shim.push_hop(INTHop(2, 20, 200, 23456))
        parsed = roundtrip(shim)
        assert parsed.hop_count == 2
        assert parsed.hops[0].device_id == 2  # newest first

    def test_stack_limit(self):
        shim = INTShim(max_hops=2)
        assert shim.push_hop(INTHop(1))
        assert shim.push_hop(INTHop(2))
        assert shim.exceeded
        assert not shim.push_hop(INTHop(3))
        assert shim.hop_count == 2

    def test_hop_count_exceeding_max_rejected(self):
        shim = INTShim(max_hops=1)
        shim.push_hop(INTHop(1))
        raw = bytearray(shim.pack())
        raw[0] = (1 << 4) | 2  # claim 2 hops with max 1
        with pytest.raises(ParseError):
            INTShim.unpack(memoryview(bytes(raw)), 0)

    def test_header_copy_is_independent(self):
        shim = INTShim(max_hops=4)
        shim.push_hop(INTHop(1))
        clone = shim.copy()
        clone.push_hop(INTHop(2))
        assert shim.hop_count == 1 and clone.hop_count == 2


# ----------------------------------------------------------------------
# A copy shares nothing mutable with its original
# ----------------------------------------------------------------------
PACKET_HEADERS = sorted(
    (cls for cls in Header.__subclasses__() if cls.__module__.startswith("repro.packet.")),
    key=lambda cls: cls.__name__,
)


def populated(cls):
    """An instance with every nested container non-empty."""
    if cls is INTShim:
        return INTShim(max_hops=4, hops=[INTHop(1, 2, 3, 4), INTHop(5, 6, 7, 8)])
    if cls is GRE:
        return GRE(key=7)
    return cls()


def mutate_every_field(record):
    """Change every declared field of ``record``, nested records included."""
    for name in fields_of(type(record)):
        value = getattr(record, name)
        if isinstance(value, bool):
            setattr(record, name, not value)
        elif isinstance(value, int):
            setattr(record, name, value ^ 1)
        elif isinstance(value, bytes):
            setattr(record, name, value + b"\x01")
        elif isinstance(value, list):
            for item in value:
                mutate_every_field(item)
            value.append(copy.deepcopy(value[0]))
        else:
            raise AssertionError(f"{type(record).__name__}.{name}: untested field {value!r}")


class TestCopyIndependence:
    def test_every_packet_header_is_covered(self):
        assert len(PACKET_HEADERS) == 11 and INTShim in PACKET_HEADERS

    @pytest.mark.parametrize("cls", PACKET_HEADERS, ids=lambda cls: cls.__name__)
    def test_header_copy_equals_and_shares_nothing(self, cls):
        original = populated(cls)
        pristine = copy.deepcopy(original)
        clone = original.copy()
        assert type(clone) is cls and clone is not original
        assert clone == original
        mutate_every_field(clone)
        assert clone != original
        assert original == pristine

    def test_copied_int_shim_owns_its_hop_records(self):
        """The defect: ``[h for h in self.hops]`` copied the list, not the hops."""
        shim = INTShim(hops=[INTHop(1, latency_ns=5)])
        clone = shim.copy()
        clone.hops[0].latency_ns = 999
        assert shim.hops[0].latency_ns == 5
        via_packet = Packet([Ethernet(ethertype=EtherType.INT_SHIM), shim]).copy()
        via_packet.get(INTShim).hops[0].latency_ns = 999
        assert shim.hops[0].latency_ns == 5

    def test_packet_copy_equals_and_shares_nothing(self):
        original = make_udp(payload=b"payload")
        original.insert_after(original.eth, populated(INTShim))
        original.meta.update(trace_id=3, ppe_enqueue_ns=17)
        pristine = copy.deepcopy(original)
        clone = original.copy()
        assert clone.headers == original.headers and clone.headers is not original.headers
        assert all(a is not b for a, b in zip(clone.headers, original.headers))
        assert clone.payload == original.payload and clone.meta == original.meta
        for header in clone.headers:
            mutate_every_field(header)
        clone.headers.append(VLAN(vid=9))
        clone.payload += b"!"
        clone.meta["trace_id"] = 4
        clone.meta["new"] = True
        del clone.meta["ppe_enqueue_ns"]
        assert original.headers == pristine.headers
        assert original.payload == pristine.payload
        assert original.meta == pristine.meta == {"trace_id": 3, "ppe_enqueue_ns": 17}

    def test_copy_of_a_frame_without_meta_gets_its_own_empty_meta(self):
        original = make_udp()
        clone = original.copy()
        clone.meta["k"] = 1
        assert original.meta == {} and original.copy().meta == {}


# ----------------------------------------------------------------------
# Every packet record is slotted: it holds its declared fields and no more
# ----------------------------------------------------------------------
RECORDS = PACKET_HEADERS + [INTHop]


class TestSlottedRecords:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_no_instance_has_a_dict(self, cls):
        record = populated(cls)
        assert not hasattr(record, "__dict__")
        assert not hasattr(record.copy(), "__dict__")
        assert fields_of(cls) and all(hasattr(record, f) for f in fields_of(cls))

    def test_a_misspelt_field_store_raises(self):
        ip = IPv4("10.0.0.1", "10.0.0.2")
        with pytest.raises(AttributeError):
            ip.tll = 1
        with pytest.raises(AttributeError):
            INTHop().latency = 1
        assert ip.ttl == 64

    def test_a_subclass_without_slots_is_refused_by_name(self):
        with pytest.raises(TypeError, match="Unslotted must declare __slots__"):

            class Unslotted(UDP):
                pass

    def test_generated_copy_is_attributed_to_the_packet_layer(self):
        """Not ``<string>``: the call census counts frames by file name."""
        base_py = fields_of.__code__.co_filename
        for cls in RECORDS:
            if cls is not INTShim:  # writes its own, to copy the hop records
                assert cls.copy.__code__.co_filename == base_py, cls
        assert UDP.copy is not IPv4.copy and UDP.copy.__qualname__ == "UDP.copy"

    @pytest.mark.parametrize(
        "roundtrip", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )  # fmt: skip
    def test_a_packet_of_every_header_round_trips(self, roundtrip):
        original = Packet([populated(cls) for cls in PACKET_HEADERS], payload=b"tail")
        original.meta["trace_id"] = 5
        again = roundtrip(original)
        assert again.headers == original.headers
        assert all(a is not b for a, b in zip(again.headers, original.headers))
        assert again.payload == original.payload and again.meta == original.meta
