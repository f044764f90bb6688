"""Per-application resource footprints across the §3 use-case spectrum.

Builds every registered application into the prototype shell and reports
its footprint and utilization — the feasibility sweep behind the claim
that FlexSFP targets "composed L2-L4 functions" while "deeply stateful
pipelines or very large tables are out of scope by design" (§5.3).
"""


from common import fmt_pct, report
from repro.apps import APP_FACTORIES, create_app
from repro.core import ShellSpec
from repro.fpga import MPF200T
from repro.hls import compile_app


def compute():
    rows = []
    for name in sorted(APP_FACTORIES):
        app = create_app(name)
        build = compile_app(app, ShellSpec(), strict=False)
        util = build.report.utilization
        rows.append(
            {
                "app": name,
                "chain_depth": app.pipeline_spec().chain_depth,
                "lut": build.report.app_resources.lut4,
                "lsram": build.report.app_resources.lsram,
                "lut_util": util["lut4"],
                "lsram_util": util["lsram"],
                "fits": build.report.fits,
                "meets_timing": build.report.meets_timing,
            }
        )
    return rows


def test_app_footprints():
    rows = compute()
    report(
        "§3 use-case spectrum: per-application footprints (MPF200T, 10G one-way)",
        ("app", "chain", "app LUT", "app LSRAM", "LUT util", "LSRAM util", "fits", "timing"),
        [
            (
                r["app"],
                r["chain_depth"],
                r["lut"],
                r["lsram"],
                fmt_pct(r["lut_util"]),
                fmt_pct(r["lsram_util"]),
                r["fits"],
                r["meets_timing"],
            )
            for r in rows
        ],
    )
    by_app = {r["app"]: r for r in rows}
    # Every §3 use case fits the prototype device and closes timing.
    for name, row in by_app.items():
        assert row["fits"], name
        assert row["meets_timing"], name
    # Shape: the paper's scoping holds — every app keeps a compact chain
    # (<= 4 match-action stages) and leaves most of the device free.
    for name, row in by_app.items():
        assert row["chain_depth"] <= 4, name
        assert row["lut_util"] < 0.5, name
    # NAT is the LSRAM-heavy one (the Table 1 observation); passthrough is
    # the floor.
    assert by_app["nat"]["lsram"] == max(r["lsram"] for r in rows)
    assert by_app["passthrough"]["lut"] == min(r["lut"] for r in rows)
