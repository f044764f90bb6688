"""Application composition: AppChain semantics and lowering."""

import pytest

from repro.apps import (
    AclFirewall,
    AclRule,
    AppChain,
    FlowTelemetry,
    PacketSanitizer,
    StaticNat,
)
from repro.core import FlexSFPModule, ShellSpec, Verdict
from repro.errors import ConfigError
from repro.hls import StageKind, compile_app
from repro.packet import make_udp
from repro.sim import Port, connect
from tests.conftest import make_ctx
from repro.nfv import Deployment


def sample_chain():
    nat = StaticNat(capacity=64)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    firewall = AclFirewall(default_action="permit")
    firewall.add_rule(AclRule("deny", dst="9.9.9.9", priority=10))
    return AppChain([nat, firewall], name="nat+fw"), nat, firewall


class TestSemantics:
    def test_all_pass_runs_every_member(self):
        chain, nat, firewall = sample_chain()
        packet = make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8")
        assert chain.process(packet, make_ctx()) is Verdict.PASS
        assert packet.ipv4.src_ip == "198.51.100.1"  # NAT ran
        assert firewall.counter("permitted").packets == 1  # firewall ran

    def test_first_drop_short_circuits(self):
        chain, nat, firewall = sample_chain()
        packet = make_udp(src_ip="10.0.0.1", dst_ip="9.9.9.9")
        assert chain.process(packet, make_ctx()) is Verdict.DROP
        assert chain.counter("stopped_by_firewall").packets == 1

    def test_order_matters(self):
        # firewall-first sees the *untranslated* source.
        nat = StaticNat(capacity=64)
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        firewall = AclFirewall(default_action="permit")
        firewall.add_rule(AclRule("deny", src="198.51.100.1", priority=5))
        fw_first = AppChain([firewall, nat], name="fw+nat")
        packet = make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8")
        assert fw_first.process(packet, make_ctx()) is Verdict.PASS
        nat_first = AppChain(
            [nat, firewall], name="nat+fw2"
        )
        packet2 = make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8")
        assert nat_first.process(packet2, make_ctx()) is Verdict.DROP

    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigError):
            AppChain([])

    def test_duplicate_member_names_rejected(self):
        with pytest.raises(ConfigError):
            AppChain([StaticNat(capacity=4), StaticNat(capacity=8)])


class TestTablesAndCounters:
    def test_tables_prefixed(self):
        chain, nat, firewall = sample_chain()
        assert "nat.nat" in chain.tables.names()
        assert "firewall.acl" in chain.tables.names()

    def test_prefixed_table_delegates(self):
        chain, nat, firewall = sample_chain()
        view = chain.tables.get("nat.nat")
        view.insert(0x0A000002, 0xC6336402)
        assert nat.nat_table.lookup(0x0A000002) == 0xC6336402
        assert view.stats()["size"] == len(nat.nat_table)

    def test_counters_merged(self):
        chain, nat, firewall = sample_chain()
        chain.process(make_udp(src_ip="10.0.0.1"), make_ctx())
        merged = chain.metric_values()
        assert merged["nat.translated.packets"] == 1
        assert "firewall.permitted.bytes" in merged


class TestLowering:
    def test_single_shared_parser_and_buffer(self):
        chain, *_ = sample_chain()
        spec = chain.pipeline_spec()
        kinds = [s.kind for s in spec.stages]
        assert kinds.count(StageKind.PARSER) == 1
        assert kinds.count(StageKind.DEPARSER) == 1
        assert kinds.count(StageKind.FIFO) == 1
        assert kinds.count(StageKind.CHECKSUM) <= 1  # optimizer dedupe

    def test_parser_sized_for_deepest_member(self):
        chain = AppChain(
            [StaticNat(capacity=16), FlowTelemetry(capacity=64)], name="c"
        )
        spec = chain.pipeline_spec()
        parser = next(s for s in spec.stages if s.kind is StageKind.PARSER)
        # Telemetry parses 54 B (deeper than NAT's 34 B).
        assert parser.param("header_bytes") == 54

    def test_composition_cheaper_than_sum_of_modules(self):
        nat = StaticNat(capacity=1024)
        telemetry = FlowTelemetry(capacity=512)
        chain = AppChain([StaticNat(capacity=1024), FlowTelemetry(capacity=512)], name="c")
        chained = compile_app(chain, ShellSpec())
        separate_total = sum(
            compile_app(app, ShellSpec()).report.total.lut4
            for app in (nat, telemetry)
        )
        assert chained.report.total.lut4 < separate_total

    def test_chain_compiles_and_fits(self):
        chain, *_ = sample_chain()
        result = compile_app(chain, ShellSpec())
        assert result.report.fits and result.report.meets_timing

    def test_config_marks_not_reconstructible(self):
        chain, *_ = sample_chain()
        config = chain.config()
        assert config["reconstructible"] is False
        assert config["members"] == ["nat", "firewall"]


class TestChainInModule:
    def test_deployed_chain_end_to_end(self, sim):
        chain = AppChain(
            [
                PacketSanitizer(),
                StaticNat(capacity=64),
                AclFirewall(default_action="permit"),
            ],
            name="edge-stack",
        )
        chain.apps[1].add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(sim, "m", Deployment.solo(chain), auth_key=b"k")
        host = Port(sim, "host", 10e9)
        fiber = Port(sim, "fiber", 10e9)
        fiber_rx = []
        fiber.attach(lambda p, pkt, size, when: fiber_rx.append(pkt))
        connect(host, module.edge_port)
        connect(module.line_port, fiber)

        host.send(make_udp(src_ip="10.0.0.1", dst_ip="8.8.8.8"))  # clean
        host.send(make_udp(src_ip="127.0.0.1"))  # martian: sanitizer drops
        sim.run(until=1e-2)
        assert len(fiber_rx) == 1
        assert fiber_rx[0].ipv4.src_ip == "198.51.100.1"
        assert module.verdict_drops.packets == 1


class TestChainWithXdpMember:
    def test_custom_program_composes_with_bundled_apps(self):
        from repro.hls import XdpProgram, XdpVerdict

        def drop_ttl_one(ctx):
            ip = ctx.ipv4
            if ip is not None and ip.ttl <= 1:
                return XdpVerdict.XDP_DROP
            return XdpVerdict.XDP_PASS

        from repro.packet import Ethernet, IPv4

        guard = XdpProgram("ttl-guard", drop_ttl_one, parses=(Ethernet, IPv4))
        chain = AppChain([guard, PacketSanitizer()], name="guarded")
        assert chain.process(make_udp(ttl=64), make_ctx()) is Verdict.PASS
        assert chain.process(make_udp(ttl=1), make_ctx()) is Verdict.DROP
        assert chain.counter("stopped_by_ttl-guard").packets == 1

    def test_chain_of_xdp_compiles(self):
        from repro.hls import XdpProgram, XdpVerdict, compile_app as build
        from repro.packet import Ethernet, IPv4

        guard = XdpProgram(
            "g", lambda ctx: XdpVerdict.XDP_PASS, parses=(Ethernet, IPv4)
        )
        chain = AppChain([guard, StaticNat(capacity=64)], name="xdp+nat")
        result = build(chain, ShellSpec())
        assert result.report.fits and result.report.meets_timing
