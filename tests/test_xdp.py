"""The XDP-like programming model: runtime behaviour and lowering."""

import pytest

from repro.core import Direction, ShellSpec, Verdict
from repro.errors import CompileError
from repro.hls import (
    StageKind,
    XdpContext,
    XdpMap,
    XdpProgram,
    XdpVerdict,
    compile_app,
)
from repro.packet import IPv4, TCP, UDP, Ethernet, make_udp
from tests.conftest import make_ctx


def drop_port_80(ctx: XdpContext) -> XdpVerdict:
    tcp = ctx.tcp
    udp = ctx.udp
    dport = tcp.dport if tcp else (udp.dport if udp else None)
    return XdpVerdict.XDP_DROP if dport == 80 else XdpVerdict.XDP_PASS


def make_program(**kwargs) -> XdpProgram:
    defaults = dict(
        name="port-filter",
        func=drop_port_80,
        parses=(Ethernet, IPv4, TCP, UDP),
    )
    defaults.update(kwargs)
    return XdpProgram(**defaults)


class TestRuntime:
    def test_pass_and_drop(self):
        program = make_program()
        assert program.process(make_udp(dport=80), make_ctx()) is Verdict.DROP
        assert program.process(make_udp(dport=53), make_ctx()) is Verdict.PASS

    def test_verdict_mapping(self):
        cases = {
            XdpVerdict.XDP_PASS: Verdict.PASS,
            XdpVerdict.XDP_DROP: Verdict.DROP,
            XdpVerdict.XDP_ABORTED: Verdict.DROP,
            XdpVerdict.XDP_TX: Verdict.REFLECT,
            XdpVerdict.XDP_REDIRECT: Verdict.TO_CPU,
        }
        for xdp_verdict, expected in cases.items():
            program = make_program(func=lambda ctx, v=xdp_verdict: v)
            assert program.process(make_udp(), make_ctx()) is expected

    def test_non_verdict_return_rejected(self):
        program = make_program(func=lambda ctx: 42)
        with pytest.raises(CompileError, match="XdpVerdict"):
            program.process(make_udp(), make_ctx())

    def test_map_lookup_update(self):
        counter = XdpMap("hits", kind="hash", max_entries=16)

        def count(ctx: XdpContext) -> XdpVerdict:
            ip = ctx.ipv4
            if ip is not None:
                counter.update(ip.src, (counter.lookup(ip.src) or 0) + 1)
            return XdpVerdict.XDP_PASS

        program = make_program(func=count, maps=[counter])
        for _ in range(3):
            program.process(make_udp(src_ip="10.0.0.9"), make_ctx())
        assert counter.lookup(0x0A000009) == 3

    def test_maps_registered_as_tables(self):
        program = make_program(maps=[XdpMap("m1"), XdpMap("m2", kind="lpm")])
        assert program.tables.names() == ["m1", "m2"]

    def test_array_map_prepopulated(self):
        array = XdpMap("arr", kind="array", max_entries=4)
        assert array.lookup(0) == 0 and array.lookup(3) == 0

    def test_rewrite_helper_applies_and_tracks(self):
        def rewrite(ctx: XdpContext) -> XdpVerdict:
            ip = ctx.ipv4
            ctx.rewrite(ip, "src", 0x01020304)
            return XdpVerdict.XDP_PASS

        program = make_program(
            func=rewrite, rewrites=((IPv4, "src"),), uses_checksum=True
        )
        packet = make_udp()
        program.process(packet, make_ctx())
        assert packet.ipv4.src == 0x01020304

    def test_rewrite_unknown_field_rejected(self):
        def bad(ctx: XdpContext) -> XdpVerdict:
            ctx.rewrite(ctx.ipv4, "checksum", 0)
            return XdpVerdict.XDP_PASS

        with pytest.raises(CompileError, match="not rewritable"):
            make_program(func=bad).process(make_udp(), make_ctx())

    def test_emit(self):
        def emitter(ctx: XdpContext) -> XdpVerdict:
            ctx.emit(make_udp(payload=b"clone"), Direction.LINE_TO_EDGE)
            return XdpVerdict.XDP_PASS

        ctx = make_ctx()
        make_program(func=emitter).process(make_udp(), ctx)
        assert len(ctx.emitted) == 1


class TestLowering:
    def test_pipeline_shape(self):
        program = make_program(
            maps=[XdpMap("flows", max_entries=1024)],
            rewrites=((IPv4, "src"),),
            uses_checksum=True,
        )
        spec = program.pipeline_spec()
        kinds = [stage.kind for stage in spec.stages]
        assert kinds == [
            StageKind.PARSER,
            StageKind.EXACT_TABLE,
            StageKind.ACTION,
            StageKind.CHECKSUM,
            StageKind.FIFO,
            StageKind.DEPARSER,
        ]

    def test_parser_sized_from_declarations(self):
        program = make_program()
        # eth(14) + ipv4(20) + tcp(20) + udp(8)
        assert program.declared_header_bytes == 62

    def test_lpm_map_lowers_to_lpm_stage(self):
        program = make_program(maps=[XdpMap("routes", kind="lpm")])
        kinds = [s.kind for s in program.pipeline_spec().stages]
        assert StageKind.LPM_TABLE in kinds

    def test_program_compiles_to_bitstream(self):
        program = make_program(maps=[XdpMap("flows", max_entries=512)])
        result = compile_app(program, ShellSpec())
        assert result.report.fits and result.report.meets_timing
        assert result.bitstream.app_name == "port-filter"

    def test_unknown_map_kind_rejected(self):
        with pytest.raises(CompileError):
            XdpMap("bad", kind="bloom")

    def test_unsizeable_header_rejected(self):
        class Custom:
            pass

        with pytest.raises(CompileError, match="cannot size parser"):
            make_program(parses=(Ethernet, Custom))


class TestLint:
    def test_clean_program_has_no_warnings(self):
        program = make_program()
        program.process(make_udp(), make_ctx())
        assert program.lint() == []

    def test_undeclared_header_flagged(self):
        def peeks_ipv4(ctx: XdpContext) -> XdpVerdict:
            ctx.ipv4
            return XdpVerdict.XDP_PASS

        program = XdpProgram("peek", peeks_ipv4, parses=(Ethernet,))
        program.process(make_udp(), make_ctx())
        assert any("IPv4" in warning for warning in program.lint())

    def test_undeclared_rewrite_flagged(self):
        def rewrites(ctx: XdpContext) -> XdpVerdict:
            ctx.rewrite(ctx.ipv4, "ttl", 1)
            return XdpVerdict.XDP_PASS

        program = XdpProgram("rw", rewrites, parses=(Ethernet, IPv4))
        program.process(make_udp(), make_ctx())
        assert any("rewrote" in warning for warning in program.lint())
