"""XDP program analyzer: each rule has a triggering and a passing program.

These checks run on the AST of the packet function — no packet is ever
processed.  The integration tests at the bottom prove the compile-time
gate: a strict ``compile_app`` rejects a broken program before synthesis,
while ``strict=False`` builds it and records the finding in the notes.
"""

import time

import pytest

from repro.analysis import Severity, check_program
from repro.analysis.xdpcheck import scan_source_file
from repro.core import ShellSpec
from repro.errors import CompileError
from repro.hls import XdpContext, XdpMap, XdpProgram, XdpVerdict, compile_app
from repro.packet import IPv4, TCP, UDP, Ethernet


def rules_of(findings, severity=None):
    return {
        f.rule
        for f in findings
        if severity is None or f.severity is severity
    }


def program(func, **kwargs):
    defaults = dict(name="probe", parses=(Ethernet, IPv4, TCP, UDP))
    defaults.update(kwargs)
    return XdpProgram(func=func, **defaults)


def clean(ctx: XdpContext) -> XdpVerdict:
    tcp = ctx.tcp
    if tcp is not None and tcp.dport == 80:
        return XdpVerdict.XDP_DROP
    return XdpVerdict.XDP_PASS


class TestConstructRules:
    def test_clean_program_has_no_findings(self):
        assert check_program(program(clean)) == []

    def test_while_loop_is_error(self):
        def spin(ctx: XdpContext) -> XdpVerdict:
            count = 0
            while count < 10:
                count += 1
            return XdpVerdict.XDP_PASS

        assert "xdp-loop" in rules_of(check_program(program(spin)), Severity.ERROR)

    def test_constant_range_loop_passes(self):
        def unrolled(ctx: XdpContext) -> XdpVerdict:
            total = 0
            for i in range(4):
                total += i
            return XdpVerdict.XDP_PASS

        assert "xdp-loop" not in rules_of(check_program(program(unrolled)))

    def test_unbounded_for_is_warning(self):
        def walker(ctx: XdpContext) -> XdpVerdict:
            for _ in ctx.packet.headers:
                pass
            return XdpVerdict.XDP_PASS

        assert "xdp-loop" in rules_of(
            check_program(program(walker)), Severity.WARNING
        )

    def test_recursion_is_error(self):
        def recurse(ctx: XdpContext) -> XdpVerdict:
            return recurse(ctx)

        assert "xdp-recursion" in rules_of(
            check_program(program(recurse)), Severity.ERROR
        )

    def test_float_constant_is_error(self):
        def floaty(ctx: XdpContext) -> XdpVerdict:
            threshold = 0.5
            return XdpVerdict.XDP_PASS if threshold else XdpVerdict.XDP_DROP

        assert "xdp-float" in rules_of(check_program(program(floaty)), Severity.ERROR)

    def test_true_division_is_error(self):
        def divides(ctx: XdpContext) -> XdpVerdict:
            rate = ctx.packet.wire_len / 2
            return XdpVerdict.XDP_PASS if rate else XdpVerdict.XDP_DROP

        assert "xdp-float" in rules_of(check_program(program(divides)))

    def test_floor_division_passes(self):
        def halves(ctx: XdpContext) -> XdpVerdict:
            rate = ctx.packet.wire_len // 2
            return XdpVerdict.XDP_PASS if rate else XdpVerdict.XDP_DROP

        assert "xdp-float" not in rules_of(check_program(program(halves)))

    def test_wallclock_is_error(self):
        def clocky(ctx: XdpContext) -> XdpVerdict:
            if time.time() > 0:
                return XdpVerdict.XDP_DROP
            return XdpVerdict.XDP_PASS

        findings = check_program(program(clocky))
        assert "xdp-wallclock" in rules_of(findings, Severity.ERROR)

    def test_virtual_time_passes(self):
        def virtual(ctx: XdpContext) -> XdpVerdict:
            if ctx.now_ns() > 0:
                return XdpVerdict.XDP_DROP
            return XdpVerdict.XDP_PASS

        assert "xdp-wallclock" not in rules_of(check_program(program(virtual)))

    def test_random_is_error(self):
        def sampler(ctx: XdpContext) -> XdpVerdict:
            import random

            if random.randint(0, 9):
                return XdpVerdict.XDP_DROP
            return XdpVerdict.XDP_PASS

        assert "xdp-random" in rules_of(check_program(program(sampler)), Severity.ERROR)

    def test_try_except_is_error(self):
        def catcher(ctx: XdpContext) -> XdpVerdict:
            try:
                return XdpVerdict.XDP_PASS
            except ValueError:
                return XdpVerdict.XDP_DROP

        assert "xdp-try" in rules_of(check_program(program(catcher)), Severity.ERROR)

    def test_hot_path_allocation_is_warning(self):
        def allocates(ctx: XdpContext) -> XdpVerdict:
            seen = []
            seen.append(ctx.packet.wire_len)
            return XdpVerdict.XDP_PASS

        assert "xdp-alloc" in rules_of(
            check_program(program(allocates)), Severity.WARNING
        )


class TestVerdictCompleteness:
    def test_fallthrough_is_error(self):
        def maybe(ctx: XdpContext) -> XdpVerdict:
            if ctx.tcp is not None:
                return XdpVerdict.XDP_PASS

        assert "xdp-verdict" in rules_of(check_program(program(maybe)), Severity.ERROR)

    def test_bare_return_is_error(self):
        def bails(ctx: XdpContext) -> XdpVerdict:
            if ctx.tcp is None:
                return
            return XdpVerdict.XDP_PASS

        assert "xdp-verdict" in rules_of(check_program(program(bails)), Severity.ERROR)

    def test_exhaustive_branches_pass(self):
        def either(ctx: XdpContext) -> XdpVerdict:
            if ctx.tcp is not None:
                return XdpVerdict.XDP_DROP
            else:
                return XdpVerdict.XDP_PASS

        assert "xdp-verdict" not in rules_of(check_program(program(either)))


class TestDeadCode:
    def test_code_after_return_is_warning(self):
        def eager(ctx: XdpContext) -> XdpVerdict:
            return XdpVerdict.XDP_PASS
            ctx.tcp  # noqa: B018 — deliberately unreachable

        findings = check_program(program(eager))
        assert "xdp-dead-code" in rules_of(findings, Severity.WARNING)

    def test_code_after_exhaustive_if_is_warning(self):
        def split(ctx: XdpContext) -> XdpVerdict:
            if ctx.tcp is not None:
                return XdpVerdict.XDP_DROP
            else:
                return XdpVerdict.XDP_PASS
            return XdpVerdict.XDP_PASS  # unreachable

        assert "xdp-dead-code" in rules_of(
            check_program(program(split)), Severity.WARNING
        )

    def test_dead_code_inside_branch_is_warning(self):
        def nested(ctx: XdpContext) -> XdpVerdict:
            if ctx.tcp is None:
                return XdpVerdict.XDP_PASS
                ctx.udp  # unreachable inside the branch
            return XdpVerdict.XDP_DROP

        assert "xdp-dead-code" in rules_of(
            check_program(program(nested)), Severity.WARNING
        )

    def test_one_warning_per_statement_list(self):
        def pile(ctx: XdpContext) -> XdpVerdict:
            return XdpVerdict.XDP_PASS
            ctx.tcp  # unreachable
            ctx.udp  # equally unreachable — same finding

        findings = [
            f for f in check_program(program(pile)) if f.rule == "xdp-dead-code"
        ]
        assert len(findings) == 1

    def test_terminal_return_passes(self):
        assert "xdp-dead-code" not in rules_of(check_program(program(clean)))

    def test_non_exhaustive_if_then_code_passes(self):
        def fallthrough(ctx: XdpContext) -> XdpVerdict:
            if ctx.tcp is not None:
                return XdpVerdict.XDP_DROP
            ctx.udp  # reachable: the if may fall through
            return XdpVerdict.XDP_PASS

        assert "xdp-dead-code" not in rules_of(check_program(program(fallthrough)))

    def test_example_source_scan_flags_dead_code(self, tmp_path):
        source = (
            "from repro.hls import XdpContext, XdpVerdict\n"
            "def eager(ctx: XdpContext) -> XdpVerdict:\n"
            "    return XdpVerdict.XDP_PASS\n"
            "    ctx.tcp\n"
        )
        example = tmp_path / "dead_example.py"
        example.write_text(source)
        findings = scan_source_file(example)
        assert "xdp-dead-code" in rules_of(findings, Severity.WARNING)
        assert all(f.location.startswith("dead_example.py:eager") for f in findings)

    def test_bundled_examples_have_no_dead_code(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples"
        for path in sorted(examples.glob("*.py")):
            assert "xdp-dead-code" not in rules_of(scan_source_file(path)), path.name


class TestDeclarationRules:
    def test_undeclared_map_is_error(self):
        hidden = XdpMap("hidden", max_entries=8)

        def peeks(ctx: XdpContext) -> XdpVerdict:
            if hidden.lookup(1):
                return XdpVerdict.XDP_DROP
            return XdpVerdict.XDP_PASS

        findings = check_program(program(peeks))  # map not declared
        assert "xdp-undeclared-map" in rules_of(findings, Severity.ERROR)

    def test_declared_map_passes(self):
        counted = XdpMap("counted", max_entries=8)

        def counts(ctx: XdpContext) -> XdpVerdict:
            counted.update(1, (counted.lookup(1) or 0) + 1)
            return XdpVerdict.XDP_PASS

        findings = check_program(program(counts, maps=[counted]))
        assert "xdp-undeclared-map" not in rules_of(findings)
        assert "xdp-unused-map" not in rules_of(findings)

    def test_unused_map_is_warning(self):
        idle = XdpMap("idle", max_entries=8)
        findings = check_program(program(clean, maps=[idle]))
        assert "xdp-unused-map" in rules_of(findings, Severity.WARNING)

    def test_undeclared_header_is_error(self):
        def peeks_ip(ctx: XdpContext) -> XdpVerdict:
            if ctx.ipv4 is not None:
                return XdpVerdict.XDP_DROP
            return XdpVerdict.XDP_PASS

        findings = check_program(program(peeks_ip, parses=(Ethernet,)))
        assert "xdp-undeclared-header" in rules_of(findings, Severity.ERROR)

    def test_declared_header_passes(self):
        findings = check_program(program(clean))
        assert "xdp-undeclared-header" not in rules_of(findings)

    def test_undeclared_rewrite_is_error(self):
        def mangles(ctx: XdpContext) -> XdpVerdict:
            ip = ctx.ipv4
            if ip is not None:
                ctx.rewrite(ip, "ttl", 1)
            return XdpVerdict.XDP_PASS

        findings = check_program(program(mangles))
        assert "xdp-undeclared-rewrite" in rules_of(findings, Severity.ERROR)

    def test_declared_rewrite_passes(self):
        def mangles(ctx: XdpContext) -> XdpVerdict:
            ip = ctx.ipv4
            if ip is not None:
                ctx.rewrite(ip, "ttl", 1)
            return XdpVerdict.XDP_PASS

        findings = check_program(
            program(mangles, rewrites=((IPv4, "ttl"),), uses_checksum=True)
        )
        assert "xdp-undeclared-rewrite" not in rules_of(findings)

    def test_source_unavailable_is_info_only(self):
        namespace = {"XdpVerdict": XdpVerdict}
        exec("def ghost(ctx):\n    return XdpVerdict.XDP_PASS\n", namespace)
        findings = check_program(program(namespace["ghost"]))
        assert rules_of(findings) == {"xdp-no-source"}
        assert rules_of(findings, Severity.ERROR) == set()


class TestCompileTimeGate:
    def undeclared_rewrite_program(self):
        def mangles(ctx: XdpContext) -> XdpVerdict:
            ip = ctx.ipv4
            if ip is not None:
                ctx.rewrite(ip, "ttl", 1)
            return XdpVerdict.XDP_PASS

        return program(mangles)

    def test_verify_rejects_before_any_packet(self):
        bad = self.undeclared_rewrite_program()
        with pytest.raises(CompileError, match="xdp-undeclared-rewrite"):
            compile_app(bad, ShellSpec())
        assert bad.counter("packets").packets == 0  # nothing ever processed

    def test_non_strict_build_notes_the_error(self):
        result = compile_app(
            self.undeclared_rewrite_program(), ShellSpec(), strict=False
        )
        assert result.report.fits and result.report.meets_timing
        assert any(
            "xdp-undeclared-rewrite" in note for note in result.report.notes
        )

    def test_warnings_land_in_report_notes(self):
        idle = XdpMap("idle", max_entries=8)
        result = compile_app(program(clean, maps=[idle]), ShellSpec())
        assert any("xdp-unused-map" in note for note in result.report.notes)

    def test_runtime_lint_surfaces_on_recompile(self):
        from tests.conftest import make_ctx
        from repro.packet import make_udp

        def peeks_ip(ctx: XdpContext) -> XdpVerdict:
            ctx.ipv4
            return XdpVerdict.XDP_PASS

        prog = program(peeks_ip, parses=(Ethernet, IPv4))
        prog.parses = [Ethernet]  # declaration drifts after construction
        prog.process(make_udp(), make_ctx())
        result = compile_app(prog, ShellSpec(), strict=False)
        assert any(
            note.startswith("lint:") and "IPv4" in note
            for note in result.report.notes
        )


class TestSourceScan:
    def test_examples_scan_flags_broken_function(self, tmp_path):
        source = (
            "from repro.hls import XdpContext, XdpVerdict\n"
            "def bad(ctx: XdpContext) -> XdpVerdict:\n"
            "    while True:\n"
            "        pass\n"
            "    return XdpVerdict.XDP_PASS\n"
        )
        bad = tmp_path / "bad_example.py"
        bad.write_text(source)
        findings = scan_source_file(bad)
        assert "xdp-loop" in rules_of(findings, Severity.ERROR)
        assert all(f.location.startswith("bad_example.py:bad") for f in findings)

    def test_bundled_examples_scan_clean(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples"
        for path in sorted(examples.glob("*.py")):
            findings = scan_source_file(path)
            assert rules_of(findings, Severity.ERROR) == set(), (
                path.name,
                [f.render() for f in findings],
            )
