"""FlexSFP programming model: pipeline IR, XDP-like front end, build flow."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "compiler": (
            "BuildResult", "SynthesisReport", "compile_app", "compile_pipeline",
            "price_pipeline", "price_stage",
        ),
        "executor": ("CompiledProgram", "compile_executor"),
        "ir": ("CHAIN_STAGE_KINDS", "PipelineSpec", "Stage", "StageKind"),
        "passes": (
            "ALL_PASSES", "OptimizationReport", "PassFn", "coalesce_fifos",
            "eliminate_dead_stages", "fuse_actions", "merge_checksum_units",
            "optimize",
        ),
        "xdp": (
            "FIELD_BITS", "HEADER_BYTES", "XdpContext", "XdpMap", "XdpProgram",
            "XdpVerdict",
        ),
    },
)
