"""Flow telemetry and in-band telemetry applications."""

import json

import pytest

from repro.apps import (
    FlowTelemetry,
    InbandTelemetry,
    unpack_records,
    unpack_report,
)
from repro.core import Direction, Verdict
from repro.errors import ConfigError
from repro.nfv import Deployment, check_deployment
from repro.packet import EtherType, INTShim, UDPPort, make_udp
from tests.conftest import make_ctx


class TestFlowTelemetry:
    def test_flow_accounting(self):
        telemetry = FlowTelemetry(capacity=16, export_interval_ns=10**15)
        for i in range(3):
            telemetry.process(
                make_udp(sport=1000, dport=2000, payload=b"x" * 50),
                make_ctx(time_ns=i * 1000),
            )
        record = telemetry.flows.lookup((0x0A000001, 0x0A000002, 17, 1000, 2000))
        assert record.packets == 3
        assert record.bytes == 3 * (42 + 50)

    def test_sampling(self):
        telemetry = FlowTelemetry(capacity=16, sample_rate=4, export_interval_ns=10**15)
        for _ in range(8):
            telemetry.process(make_udp(), make_ctx())
        record = telemetry.flows.lookup((0x0A000001, 0x0A000002, 17, 10000, 20000))
        assert record.packets == 2

    def test_export_emits_report(self):
        telemetry = FlowTelemetry(capacity=16, export_interval_ns=1_000)
        ctx0 = make_ctx(time_ns=0)
        telemetry.process(make_udp(sport=7), ctx0)
        ctx1 = make_ctx(time_ns=5_000, device_id=3)
        telemetry.process(make_udp(sport=8), ctx1)
        assert telemetry.exports_sent == 1
        report, direction = ctx1.emitted[0]
        assert direction is Direction.EDGE_TO_LINE
        assert report.udp.dport == UDPPort.NETFLOW
        device_id, ts, records = unpack_records(report.payload)
        assert device_id == 3
        assert any(key[3] == 7 for key, _ in records)

    def test_exported_flows_evicted(self):
        telemetry = FlowTelemetry(capacity=16, export_interval_ns=1_000)
        telemetry.process(make_udp(sport=7), make_ctx(time_ns=0))
        ctx = make_ctx(time_ns=5_000)
        telemetry.process(make_udp(sport=8), ctx)
        # flow 7 was exported and evicted; flow 8 is still accumulating.
        assert telemetry.flows.lookup((0x0A000001, 0x0A000002, 17, 7, 20000)) is None

    def test_cache_full_counted(self):
        telemetry = FlowTelemetry(capacity=1, export_interval_ns=10**15)
        telemetry.process(make_udp(sport=1), make_ctx())
        telemetry.process(make_udp(sport=2), make_ctx())
        assert telemetry.counter("cache_full").packets == 1

    def test_always_passes(self):
        telemetry = FlowTelemetry()
        assert telemetry.process(make_udp(), make_ctx()) is Verdict.PASS

    def test_invalid_sample_rate(self):
        with pytest.raises(ConfigError):
            FlowTelemetry(sample_rate=0)

    def test_record_roundtrip(self):
        from repro.apps import FlowRecord, pack_records

        key = (1, 2, 17, 3, 4)
        record = FlowRecord(packets=9, bytes=999, first_ns=10, last_ns=20)
        payload = pack_records([(key, record)], device_id=5, now_ns=123)
        device_id, ts, records = unpack_records(payload)
        assert device_id == 5 and ts == 123
        assert records[0][0] == key
        assert records[0][1].packets == 9


class TestInbandTelemetry:
    def test_source_inserts_shim(self):
        source = InbandTelemetry(role="source")
        packet = make_udp()
        source.process(packet, make_ctx(device_id=7, time_ns=555))
        shim = packet.get(INTShim)
        assert shim is not None
        assert packet.eth.ethertype == EtherType.INT_SHIM
        assert shim.next_ethertype == EtherType.IPV4
        assert shim.hops[0].device_id == 7

    def test_source_idempotent(self):
        source = InbandTelemetry(role="source")
        packet = make_udp()
        source.process(packet, make_ctx())
        source.process(packet, make_ctx())
        assert len(packet.get_all(INTShim)) == 1

    def test_transit_pushes_hop(self):
        source = InbandTelemetry(role="source")
        transit = InbandTelemetry(role="transit")
        packet = make_udp()
        source.process(packet, make_ctx(device_id=1))
        transit.process(packet, make_ctx(device_id=2))
        shim = packet.get(INTShim)
        assert [hop.device_id for hop in shim.hops] == [2, 1]

    def test_transit_without_shim_noop(self):
        transit = InbandTelemetry(role="transit")
        packet = make_udp()
        transit.process(packet, make_ctx())
        assert packet.get(INTShim) is None

    def test_sink_strips_and_reports(self):
        source = InbandTelemetry(role="source")
        sink = InbandTelemetry(role="sink", only_direction=None)
        packet = make_udp(payload=b"user-data")
        source.process(packet, make_ctx(device_id=1))
        ctx = make_ctx(device_id=9)
        sink.process(packet, ctx)
        assert packet.get(INTShim) is None
        assert packet.eth.ethertype == EtherType.IPV4
        report, _ = ctx.emitted[0]
        device_id, hops = unpack_report(report.payload)
        assert device_id == 9
        assert hops[0].device_id == 1

    def test_sink_passes_a_frame_without_a_shim(self):
        sink = InbandTelemetry(role="sink", only_direction=None)
        packet, ctx = make_udp(payload=b"user-data"), make_ctx()
        before = packet.to_bytes()
        assert sink.process(packet, ctx) is Verdict.PASS
        assert packet.to_bytes() == before
        assert ctx.emitted == [] and sink.counters == {}

    def test_direction_scoping(self):
        source = InbandTelemetry(role="source", only_direction="edge->line")
        packet = make_udp()
        source.process(packet, make_ctx(Direction.LINE_TO_EDGE))
        assert packet.get(INTShim) is None

    def test_stack_limit_counted(self):
        source = InbandTelemetry(role="source", max_hops=1)
        transit = InbandTelemetry(role="transit")
        packet = make_udp()
        source.process(packet, make_ctx(device_id=1))
        transit.process(packet, make_ctx(device_id=2))
        assert transit.counter("stack_full").packets == 1

    def test_roundtrip_survives_serialization(self):
        source = InbandTelemetry(role="source")
        packet = make_udp(payload=b"data")
        source.process(packet, make_ctx(device_id=3))
        from repro.packet import Packet

        parsed = Packet.parse(packet.to_bytes())
        assert parsed.get(INTShim).hops[0].device_id == 3
        assert parsed.payload == b"data"

    def test_invalid_role(self):
        with pytest.raises(ConfigError):
            InbandTelemetry(role="observer")


class TestInbandConfigFailsClosed:
    """A bad INT parameter is refused when the app is built (so by
    ``check_deployment``), not at the first stamped frame mid-run, and
    never silently turns stamping off."""

    @staticmethod
    def _check(params):
        deployment = Deployment.from_dicts(
            [
                {"name": "scrub", "app": "sanitizer", "match": {"udp_dport": 9}, "share": 0.5},
                {"name": "telemetry", "app": "int", "params": params, "share": 0.5},
            ]
        )
        return check_deployment(deployment)

    @pytest.mark.parametrize("max_hops", [0, 16, 20, -1])
    def test_max_hops_outside_one_to_fifteen(self, max_hops):
        with pytest.raises(ConfigError, match="max_hops"):
            self._check({"max_hops": max_hops})

    @pytest.mark.parametrize("max_hops", [8.0, "8", True])
    def test_max_hops_not_an_int(self, max_hops):
        with pytest.raises(ConfigError, match="max_hops"):
            self._check({"max_hops": max_hops})

    @pytest.mark.parametrize("only_direction", ["edge-line", "", Direction.EDGE_TO_LINE])
    def test_only_direction_typo(self, only_direction):
        with pytest.raises(ConfigError, match="only_direction"):
            self._check({"only_direction": only_direction})

    @pytest.mark.parametrize("field", ["collector_ip", "exporter_ip"])
    @pytest.mark.parametrize("ip", ["203.0.113", "203.0.113.256", "", 1 << 32, 2.5, None])
    def test_a_bad_report_address(self, field, ip):
        with pytest.raises(ConfigError, match=field):
            self._check({"role": "sink", field: ip})

    def test_check_nfv_exits_2_on_a_bad_collector(self, tmp_path, capsys):
        from repro.cli import main

        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps([
            {"name": "scrub", "app": "sanitizer", "match": {"udp_dport": 9}, "share": 0.5},
            {"name": "telemetry", "app": "int", "share": 0.5,
             "params": {"role": "sink", "collector_ip": "203.0.113"}},
        ]))  # fmt: skip
        assert main(["check", "--nfv", "--tenants", str(tenants)]) == 2
        assert "collector_ip" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params",
        [{"max_hops": 1}, {"max_hops": 15}, {"only_direction": None},
         {"only_direction": "line->edge"}, {"collector_ip": 0xCB00710A}],
    )
    def test_every_valid_value_checks_clean(self, params):
        assert self._check(params) == []
