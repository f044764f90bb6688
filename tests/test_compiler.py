"""The build flow: pricing, timing closure, fit checking, artifacts."""

import pytest

from repro.apps import StaticNat
from repro.core import ShellKind, ShellSpec
from repro.errors import CompileError
from repro.fpga import MPF100T, Bitstream
from repro.hls import PipelineSpec, Stage, StageKind, compile_app, compile_pipeline, price_pipeline


def nat_app():
    return StaticNat()


class TestNatBuild:
    def test_builds_at_prototype_operating_point(self):
        result = compile_app(nat_app(), ShellSpec())
        report = result.report
        assert report.timing.clock_hz == 156.25e6
        assert report.timing.datapath_bits == 64
        assert report.fits and report.meets_timing

    def test_table1_rows_structure(self):
        result = compile_app(nat_app(), ShellSpec())
        rows = result.report.table1_rows()
        names = [row[0] for row in rows]
        assert names == ["Mi-V", "Elec. I/F", "Opt. I/F", "nat app", "Used", "Avail."]
        used = rows[-2]
        avail = rows[-1]
        assert used[1] < avail[1]  # LUTs fit
        assert used[4] == 164  # LSRAM total matches Table 1

    def test_utilization_close_to_paper(self):
        report = compile_app(nat_app(), ShellSpec()).report
        util = report.utilization
        assert util["lut4"] == pytest.approx(0.16, abs=0.02)
        assert util["lsram"] == pytest.approx(0.26, abs=0.02)

    def test_two_way_build_clocks_up(self):
        report = compile_app(nat_app(), ShellSpec(kind=ShellKind.TWO_WAY_CORE)).report
        assert report.timing.clock_hz == 312.5e6
        assert report.meets_timing

    def test_bitstream_carries_app_params(self):
        result = compile_app(nat_app(), ShellSpec())
        parsed = Bitstream.from_bytes(result.bitstream.to_bytes())
        assert parsed.app_name == "nat"
        assert parsed.metadata["app_params"]["capacity"] == 32768


class TestFailures:
    def test_oversized_table_rejected_strict(self):
        spec = PipelineSpec(
            name="huge",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 34}),
                Stage(
                    "table",
                    StageKind.EXACT_TABLE,
                    {"entries": 4_000_000, "key_bits": 32, "value_bits": 64},
                ),
            ],
        )
        with pytest.raises(CompileError, match="resource overflow"):
            compile_pipeline(spec, ShellSpec())

    def test_non_strict_records_failure(self):
        spec = PipelineSpec(
            name="huge",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 34}),
                Stage(
                    "table",
                    StageKind.EXACT_TABLE,
                    {"entries": 4_000_000, "key_bits": 32, "value_bits": 64},
                ),
            ],
        )
        result = compile_pipeline(spec, ShellSpec(), strict=False)
        assert not result.report.fits
        assert result.report.notes

    def test_timing_miss_detected(self):
        spec = PipelineSpec(
            name="slow",
            stages=[Stage("parse", StageKind.PARSER, {"header_bytes": 14})],
        )
        result = compile_pipeline(spec, ShellSpec(), clock_hz=50e6, strict=False)
        assert not result.report.meets_timing

    def test_clock_beyond_fabric_limit(self):
        spec = PipelineSpec(
            name="fast",
            stages=[Stage("parse", StageKind.PARSER, {"header_bytes": 14})],
        )
        with pytest.raises(CompileError, match="fabric limit"):
            compile_pipeline(spec, ShellSpec(), clock_hz=500e6)

    def test_smaller_device_rejects_nat_table_spill(self):
        # NAT fits MPF100T too (160 < 352 LSRAM), but a 4x table doesn't.
        app = StaticNat(capacity=131_072)
        with pytest.raises(CompileError):
            compile_app(app, ShellSpec(), device=MPF100T)

    def test_nat_fits_mpf100t(self):
        assert compile_app(nat_app(), ShellSpec(), device=MPF100T).report.fits


class TestIRValidation:
    def test_missing_params_rejected(self):
        with pytest.raises(CompileError, match="missing parameters"):
            Stage("bad", StageKind.EXACT_TABLE, {"entries": 4})

    def test_empty_pipeline_rejected(self):
        with pytest.raises(CompileError, match="no stages"):
            PipelineSpec(name="empty", stages=[])

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(CompileError, match="duplicate"):
            PipelineSpec(
                name="dup",
                stages=[
                    Stage("s", StageKind.CHECKSUM, {}),
                    Stage("s", StageKind.TIMESTAMP, {}),
                ],
            )

    def test_parser_must_precede_tables(self):
        spec = PipelineSpec(
            name="bad-order",
            stages=[
                Stage(
                    "table",
                    StageKind.EXACT_TABLE,
                    {"entries": 16, "key_bits": 8, "value_bits": 8},
                ),
                Stage("parse", StageKind.PARSER, {"header_bytes": 14}),
            ],
        )
        with pytest.raises(CompileError, match="parser must precede"):
            spec.validate()

    def test_chain_depth_counts_match_action_stages(self):
        spec = StaticNat().pipeline_spec()
        # nat_lookup + rewrite.
        assert spec.chain_depth == 2
        assert spec.pipeline_depth == 6

    def test_price_pipeline_includes_glue(self):
        total, per_stage = price_pipeline(StaticNat().pipeline_spec(), 64)
        assert "glue" in per_stage
        assert total.lut4 == sum(v.lut4 for v in per_stage.values())


class TestOverflowReport:
    """The overflow message is built by indexing device attributes with
    ResourceVector.as_dict() keys — lock that correspondence down."""

    def test_every_vector_key_is_a_device_attribute(self):
        from repro.fpga import DEVICES, ResourceVector

        for device in DEVICES.values():
            for key in ResourceVector().as_dict():
                assert isinstance(getattr(device, key), int), (device.name, key)

    def test_overflow_report_names_only_over_keys(self):
        from repro.fpga import MPF200T, ResourceVector

        used = ResourceVector(lut4=MPF200T.lut4 + 1, lsram=MPF200T.lsram + 5)
        report = MPF200T.overflow_report(used)
        assert len(report) == 2
        assert report[0].startswith(f"lut4: {MPF200T.lut4 + 1} > {MPF200T.lut4}")
        assert any(line.startswith("lsram:") for line in report)

    def test_fitting_vector_reports_nothing(self):
        from repro.fpga import MPF200T, ResourceVector

        assert MPF200T.overflow_report(ResourceVector(lut4=1)) == []


class TestVerifyFlag:
    def test_verify_notes_surface_warnings(self):
        spec = PipelineSpec(
            name="no-deparse",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 14}),
                Stage(
                    "t",
                    StageKind.EXACT_TABLE,
                    {"entries": 16, "key_bits": 8, "value_bits": 8},
                ),
            ],
        )
        result = compile_pipeline(spec, ShellSpec())
        assert any("ir-deparser-missing" in note for note in result.report.notes)

    def test_verify_false_skips_analysis(self):
        spec = PipelineSpec(
            name="no-deparse",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 14}),
                Stage(
                    "t",
                    StageKind.EXACT_TABLE,
                    {"entries": 16, "key_bits": 8, "value_bits": 8},
                ),
            ],
        )
        result = compile_pipeline(spec, ShellSpec(), verify=False)
        assert result.report.notes == []

    def test_verify_error_raises_before_synthesis(self):
        spec = PipelineSpec(
            name="backwards",
            stages=[
                Stage(
                    "t",
                    StageKind.EXACT_TABLE,
                    {"entries": 16, "key_bits": 8, "value_bits": 8},
                ),
                Stage("parse", StageKind.PARSER, {"header_bytes": 14}),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 14}),
            ],
        )
        with pytest.raises(CompileError, match="ir-parser-order"):
            compile_pipeline(spec, ShellSpec())

    def test_non_strict_degrades_verify_errors_to_notes(self):
        # Key wider than the parsed headers: verify-only error that the
        # cost model happily prices, so strict=False can still build.
        spec = PipelineSpec(
            name="wide-key",
            stages=[
                Stage("parse", StageKind.PARSER, {"header_bytes": 14}),
                Stage(
                    "t",
                    StageKind.EXACT_TABLE,
                    {"entries": 16, "key_bits": 256, "value_bits": 8},
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": 14}),
            ],
        )
        result = compile_pipeline(spec, ShellSpec(), strict=False)
        assert any("ir-key-width" in note for note in result.report.notes)
        with pytest.raises(CompileError, match="ir-key-width"):
            compile_pipeline(spec, ShellSpec())
