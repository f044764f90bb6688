"""Optimizer passes over the pipeline IR."""


from repro.hls import (
    PipelineSpec,
    Stage,
    StageKind,
    coalesce_fifos,
    eliminate_dead_stages,
    fuse_actions,
    merge_checksum_units,
    optimize,
)


def stage(kind, name, **params):
    return Stage(name=name, kind=kind, params=params)


def spec_of(*stages):
    return PipelineSpec(name="test", stages=list(stages))


class TestFuseActions:
    def test_adjacent_actions_merge(self):
        stages = [
            stage(StageKind.ACTION, "a", rewrite_bits=32),
            stage(StageKind.ACTION, "b", rewrite_bits=16),
        ]
        fused = fuse_actions(stages)
        assert len(fused) == 1
        assert fused[0].param("rewrite_bits") == 48

    def test_non_adjacent_preserved(self):
        stages = [
            stage(StageKind.ACTION, "a", rewrite_bits=32),
            stage(StageKind.CHECKSUM, "c"),
            stage(StageKind.ACTION, "b", rewrite_bits=16),
        ]
        assert len(fuse_actions(stages)) == 3

    def test_runs_of_three(self):
        stages = [
            stage(StageKind.ACTION, f"a{i}", rewrite_bits=8) for i in range(3)
        ]
        fused = fuse_actions(stages)
        assert len(fused) == 1 and fused[0].param("rewrite_bits") == 24


class TestMergeChecksums:
    def test_duplicates_dropped_keeping_last(self):
        stages = [
            stage(StageKind.CHECKSUM, "c1"),
            stage(StageKind.ACTION, "a", rewrite_bits=8),
            stage(StageKind.CHECKSUM, "c2"),
        ]
        merged = merge_checksum_units(stages)
        kinds = [s.kind for s in merged]
        assert kinds == [StageKind.ACTION, StageKind.CHECKSUM]
        assert merged[-1].name == "c2"

    def test_single_untouched(self):
        stages = [stage(StageKind.CHECKSUM, "c")]
        assert merge_checksum_units(stages) == stages


class TestDeadStageElimination:
    def test_zero_rewrite_removed(self):
        stages = [
            stage(StageKind.ACTION, "nop", rewrite_bits=0),
            stage(StageKind.ACTION, "real", rewrite_bits=8),
        ]
        live = eliminate_dead_stages(stages)
        assert [s.name for s in live] == ["real"]

    def test_zero_counters_and_meters_removed(self):
        stages = [
            stage(StageKind.COUNTERS, "c", counters=0),
            stage(StageKind.METERS, "m", meters=0),
            stage(StageKind.COUNTERS, "keep", counters=4),
        ]
        assert [s.name for s in eliminate_dead_stages(stages)] == ["keep"]


class TestCoalesceFifos:
    def test_adjacent_fifos_take_deeper(self):
        stages = [
            stage(StageKind.FIFO, "f1", depth_bytes=1024, metadata_bits=64),
            stage(StageKind.FIFO, "f2", depth_bytes=4096, metadata_bits=128),
        ]
        merged = coalesce_fifos(stages)
        assert len(merged) == 1
        assert merged[0].param("depth_bytes") == 4096
        assert merged[0].params["metadata_bits"] == 128


class TestOptimize:
    def messy_spec(self):
        return spec_of(
            stage(StageKind.PARSER, "parse", header_bytes=34),
            stage(StageKind.ACTION, "nop", rewrite_bits=0),
            stage(StageKind.ACTION, "a1", rewrite_bits=32),
            stage(StageKind.ACTION, "a2", rewrite_bits=16),
            stage(StageKind.CHECKSUM, "c1"),
            stage(StageKind.CHECKSUM, "c2"),
            stage(StageKind.FIFO, "f1", depth_bytes=1518),
            stage(StageKind.FIFO, "f2", depth_bytes=3036),
            stage(StageKind.DEPARSER, "deparse", header_bytes=34),
        )

    def test_fixed_point_and_savings(self):
        optimized, report = optimize(self.messy_spec())
        kinds = [s.kind for s in optimized.stages]
        assert kinds == [
            StageKind.PARSER,
            StageKind.ACTION,
            StageKind.CHECKSUM,
            StageKind.FIFO,
            StageKind.DEPARSER,
        ]
        assert report.before_stages == 9 and report.after_stages == 5
        assert report.lut_saving > 0

    def test_optimizing_clean_spec_is_identity(self):
        from repro.apps import StaticNat

        spec = StaticNat().pipeline_spec()
        optimized, report = optimize(spec)
        assert [s.kind for s in optimized.stages] == [s.kind for s in spec.stages]
        assert report.lut_saving == 0

    def test_optimized_spec_still_compiles(self):
        from repro.core import ShellSpec
        from repro.hls import compile_pipeline

        optimized, _ = optimize(self.messy_spec())
        result = compile_pipeline(optimized, ShellSpec())
        assert result.report.fits and result.report.meets_timing

    def test_semantic_invariant_total_rewrite_bits(self):
        spec = self.messy_spec()
        optimized, _ = optimize(spec)
        before = sum(
            s.param("rewrite_bits")
            for s in spec.stages
            if s.kind is StageKind.ACTION
        )
        after = sum(
            s.param("rewrite_bits")
            for s in optimized.stages
            if s.kind is StageKind.ACTION
        )
        assert before == after
