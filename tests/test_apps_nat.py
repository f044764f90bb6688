"""The NAT case study application (§5.1)."""

import pytest

from repro.apps import PAPER_NAT_FLOWS, StaticNat
from repro.core import Direction, Verdict
from repro.errors import ConfigError, TableError
from repro.packet import Packet, make_udp
from tests.conftest import make_ctx


@pytest.fixture
def nat():
    app = StaticNat(capacity=16)
    app.add_mapping("10.0.0.1", "198.51.100.1")
    return app


class TestMappings:
    def test_add_and_query(self, nat):
        assert nat.mapping_of("10.0.0.1") == "198.51.100.1"
        assert nat.mapping_of("10.0.0.99") is None

    def test_capacity(self):
        nat = StaticNat(capacity=1)
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        with pytest.raises(TableError):
            nat.add_mapping("10.0.0.2", "198.51.100.2")

    def test_default_capacity_is_paper_value(self):
        assert StaticNat().capacity == PAPER_NAT_FLOWS == 32_768

    def test_invalid_miss_action(self):
        with pytest.raises(ConfigError):
            StaticNat(miss_action="reflect")


class TestTranslation:
    def test_forward_translates_source(self, nat):
        packet = make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8")
        verdict = nat.process(packet, make_ctx(Direction.EDGE_TO_LINE))
        assert verdict is Verdict.PASS
        assert packet.ipv4.src_ip == "198.51.100.1"
        assert packet.ipv4.dst_ip == "8.8.8.8"

    def test_checksums_valid_after_translation(self, nat):
        packet = make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8", payload=b"data")
        nat.process(packet, make_ctx(Direction.EDGE_TO_LINE))
        reparsed = Packet.parse(packet.to_bytes())
        assert reparsed.ipv4.verify_checksum()

    def test_reverse_untranslates_destination(self, nat):
        packet = make_udp(src_ip="8.8.8.8", dst_ip="198.51.100.1")
        nat.process(packet, make_ctx(Direction.LINE_TO_EDGE))
        assert packet.ipv4.dst_ip == "10.0.0.1"

    def test_reverse_translation_disabled(self):
        nat = StaticNat(capacity=4, translate_reverse=False)
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        packet = make_udp(src_ip="8.8.8.8", dst_ip="198.51.100.1")
        nat.process(packet, make_ctx(Direction.LINE_TO_EDGE))
        assert packet.ipv4.dst_ip == "198.51.100.1"

    def test_miss_pass(self, nat):
        packet = make_udp(src_ip="10.0.0.99", dst_ip="8.8.8.8")
        assert nat.process(packet, make_ctx()) is Verdict.PASS
        assert packet.ipv4.src_ip == "10.0.0.99"

    def test_miss_drop_mode(self):
        nat = StaticNat(capacity=4, miss_action="drop")
        packet = make_udp(src_ip="10.0.0.99")
        assert nat.process(packet, make_ctx()) is Verdict.DROP

    def test_non_ip_passes(self, nat):
        from repro.packet import ARP, Ethernet, EtherType

        packet = Packet([Ethernet(ethertype=EtherType.ARP), ARP()], b"")
        assert nat.process(packet, make_ctx()) is Verdict.PASS
        assert nat.counter("non_ip").packets == 1

    def test_counters(self, nat):
        nat.process(make_udp(src_ip="10.0.0.1"), make_ctx())
        nat.process(make_udp(src_ip="10.9.9.9"), make_ctx())
        assert nat.counter("translated").packets == 1
        assert nat.counter("miss").packets == 1


class TestSynthesis:
    def test_pipeline_matches_table1_composition(self):
        spec = StaticNat().pipeline_spec()
        assert spec.pipeline_depth == 6
        table = spec.table_stages()[0]
        assert table.param("entries") == 32_768
        assert table.param("key_bits") == 32

    def test_config_roundtrip(self):
        nat = StaticNat(capacity=128, translate_reverse=False, miss_action="drop")
        clone = StaticNat(**nat.config())
        assert clone.capacity == 128
        assert clone.miss_action == "drop"
