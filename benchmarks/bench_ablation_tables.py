"""Ablation — NAT table size vs the LSRAM budget (§5.1).

"The NAT uses a basic source IP hash table to store 32,768 flows, which
accounts for the high LSRAM usage, while still showing promising potential
for larger tables."  This bench sweeps the flow-table size, reporting
LSRAM use and fit on the MPF100T/200T/300T — locating the largest table
each part can host and confirming the paper's headroom claim.
"""

import pytest

from common import fmt_pct, report
from repro.apps import StaticNat
from repro.core import ShellSpec
from repro.fpga import MPF100T, MPF200T, MPF300T
from repro.hls import compile_app

TABLE_SIZES = (4_096, 8_192, 16_384, 32_768, 65_536, 98_304, 131_072)
DEVICES = (MPF100T, MPF200T, MPF300T)


def compute():
    results = []
    for entries in TABLE_SIZES:
        build = compile_app(
            StaticNat(capacity=entries), ShellSpec(), device=MPF200T, strict=False
        )
        fits = {
            device.name: device.fits(build.report.total) for device in DEVICES
        }
        results.append(
            {
                "entries": entries,
                "lsram": build.report.total.lsram,
                "lsram_util_200t": build.report.total.lsram / MPF200T.lsram,
                "fits": fits,
            }
        )
    return results


def test_nat_table_size_ablation():
    results = compute()
    report(
        "Ablation: NAT flow-table size vs LSRAM budget",
        ("flows", "LSRAM blocks", "MPF200T util") + tuple(d.name for d in DEVICES),
        [
            (
                f"{r['entries']:,}",
                r["lsram"],
                fmt_pct(r["lsram_util_200t"]),
            )
            + tuple("fit" if r["fits"][d.name] else "NO" for d in DEVICES)
            for r in results
        ],
    )
    by_size = {r["entries"]: r for r in results}
    # The paper's 32k point: 26-27% LSRAM on the MPF200T, fits everywhere
    # bigger than the MPF100T's budget allows.
    paper_point = by_size[32_768]
    assert paper_point["lsram_util_200t"] == pytest.approx(0.266, abs=0.02)
    assert paper_point["fits"]["MPF200T"]
    # "Promising potential for larger tables": 3x the paper's table still
    # fits the same device...
    assert by_size[98_304]["fits"]["MPF200T"]
    # ...but the budget is finite on the MPF200T, and the MPF100T gives up
    # earlier while the MPF300T keeps going.
    assert not by_size[131_072]["fits"]["MPF200T"]
    assert not by_size[98_304]["fits"]["MPF100T"]
    assert by_size[131_072]["fits"]["MPF300T"]
    # LSRAM grows linearly with entries.
    assert by_size[65_536]["lsram"] - by_size[32_768]["lsram"] == pytest.approx(
        by_size[32_768]["lsram"] - by_size[16_384]["lsram"] + 160 - 80, abs=2
    )
