"""Ablation — what the build-flow optimizer passes buy.

The §4.2 workflow's "build framework" is more than translation: it fuses
adjacent rewrites, deduplicates checksum hardware, and coalesces buffers.
This bench compiles a naively-composed multi-function pipeline (tag +
tunnel-mark + police, written as independent stages) with and without the
optimizer, quantifying the saving that makes composed L2-L4 functions fit
the module.
"""


from common import report
from repro.core import ShellSpec
from repro.hls import PipelineSpec, Stage, StageKind, compile_pipeline, optimize


def naive_composed_spec() -> PipelineSpec:
    """Three functions composed stage-by-stage with no global cleanup."""
    stages = [
        Stage("parse", StageKind.PARSER, {"header_bytes": 54}),
        # function 1: VLAN tagging
        Stage("tag", StageKind.ACTION, {"rewrite_bits": 48}),
        Stage("tag_csum", StageKind.CHECKSUM, {}),
        # function 2: DSCP remark + TTL decrement
        Stage("remark", StageKind.ACTION, {"rewrite_bits": 14}),
        Stage("remark_csum", StageKind.CHECKSUM, {}),
        # an abandoned debug hook left at width 0
        Stage("debug", StageKind.ACTION, {"rewrite_bits": 0}),
        # function 3: policing
        Stage(
            "classify",
            StageKind.LPM_TABLE,
            {"entries": 1024, "key_bits": 32, "value_bits": 16},
        ),
        Stage("meter", StageKind.METERS, {"meters": 1024}),
        Stage("police_mark", StageKind.ACTION, {"rewrite_bits": 8}),
        Stage("police_csum", StageKind.CHECKSUM, {}),
        # per-function buffers
        Stage("buf1", StageKind.FIFO, {"depth_bytes": 1518, "metadata_bits": 64}),
        Stage("buf2", StageKind.FIFO, {"depth_bytes": 3036, "metadata_bits": 128}),
        Stage("deparse", StageKind.DEPARSER, {"header_bytes": 54}),
    ]
    return PipelineSpec(name="composed", stages=stages)


def compute():
    spec = naive_composed_spec()
    shell = ShellSpec()
    naive = compile_pipeline(spec, shell, strict=False)
    optimized_spec, opt_report = optimize(spec)
    optimized = compile_pipeline(optimized_spec, shell, strict=False)
    return naive, optimized, opt_report


def test_optimizer_ablation():
    naive, optimized, opt_report = compute()
    rows = [
        (
            "naive",
            opt_report.before_stages,
            naive.report.app_resources.lut4,
            naive.report.app_resources.ff,
            naive.report.app_resources.usram,
        ),
        (
            "optimized",
            opt_report.after_stages,
            optimized.report.app_resources.lut4,
            optimized.report.app_resources.ff,
            optimized.report.app_resources.usram,
        ),
    ]
    report(
        "Ablation: build-flow optimizer on a naively composed 3-function pipeline",
        ("pipeline", "stages", "app LUT", "app FF", "app uSRAM"),
        rows,
    )
    saving_lut = 1 - optimized.report.app_resources.lut4 / naive.report.app_resources.lut4
    print(f"LUT saving: {saving_lut:.0%} ({opt_report.lut_saving} LUTs)")

    # Shape: the optimizer removes real hardware (>10% LUT/FF of the app)
    # without touching behaviourally relevant structure.
    assert opt_report.after_stages < opt_report.before_stages
    assert saving_lut > 0.10
    assert optimized.report.app_resources.ff < naive.report.app_resources.ff
    # Both variants fit and close timing; optimization is a cost lever,
    # not a feasibility one, at this scale.
    assert naive.report.fits and optimized.report.fits
    assert optimized.report.meets_timing