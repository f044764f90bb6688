"""Ablation — match-action chain depth on the MPF200T (§5.3).

"Sustaining bidirectional line rate in the Two-Way-Core typically means
... keeping chains compact (about 3-4 stages)."  This bench sweeps chain
depth (exact-match table + rewrite pairs) and reports resource use and
fit, locating where the MPF200T runs out — the quantitative version of
the paper's "compact chains" guidance.
"""


from common import fmt_pct, report
from repro.core import ShellKind, ShellSpec
from repro.fpga import MPF200T
from repro.hls import PipelineSpec, Stage, StageKind, compile_pipeline

TABLE_ENTRIES = 8_192  # mid-size stateful stage
MAX_DEPTH = 10


def chain_spec(depth: int) -> PipelineSpec:
    """A pipeline with ``depth`` (table + action) match-action stages."""
    stages = [Stage("parse", StageKind.PARSER, {"header_bytes": 54})]
    for i in range(depth):
        stages.append(
            Stage(
                f"table{i}",
                StageKind.EXACT_TABLE,
                {"entries": TABLE_ENTRIES, "key_bits": 104, "value_bits": 64},
            )
        )
        stages.append(Stage(f"act{i}", StageKind.ACTION, {"rewrite_bits": 64}))
    stages.append(
        Stage("buffer", StageKind.FIFO, {"depth_bytes": 2 * 1518, "metadata_bits": 192})
    )
    stages.append(Stage("deparse", StageKind.DEPARSER, {"header_bytes": 54}))
    return PipelineSpec(name=f"chain{depth}", stages=stages)


def compute():
    shell = ShellSpec(kind=ShellKind.TWO_WAY_CORE)
    results = []
    for depth in range(1, MAX_DEPTH + 1):
        build = compile_pipeline(chain_spec(depth), shell, strict=False)
        util = build.report.utilization
        results.append(
            {
                "depth": depth,
                "lut": build.report.total.lut4,
                "lsram": build.report.total.lsram,
                "lut_util": util["lut4"],
                "lsram_util": util["lsram"],
                "fits": build.report.fits,
            }
        )
    return results


def test_chain_depth_ablation():
    results = compute()
    report(
        "Ablation: match-action chain depth on MPF200T (Two-Way-Core, 8k-entry tables)",
        ("stages", "LUT", "LSRAM", "LUT util", "LSRAM util", "fits"),
        [
            (
                r["depth"],
                r["lut"],
                r["lsram"],
                fmt_pct(r["lut_util"]),
                fmt_pct(r["lsram_util"]),
                r["fits"],
            )
            for r in results
        ],
    )
    by_depth = {r["depth"]: r for r in results}
    # Compact chains (the paper's 3-4 stages) fit comfortably...
    for depth in (1, 2, 3, 4):
        assert by_depth[depth]["fits"], depth
        assert by_depth[depth]["lsram_util"] < 0.8
    # ...but the budget is finite: some deeper chain stops fitting.
    assert not results[-1]["fits"]
    crossover = next(r["depth"] for r in results if not r["fits"])
    assert 5 <= crossover <= MAX_DEPTH
    # Resource growth is monotone in depth.
    lsram = [r["lsram"] for r in results]
    assert lsram == sorted(lsram)
