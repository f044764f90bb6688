"""§5.3 scalability — from the 10 Gbps prototype to 25/40/100 Gbps.

"Scaling by 10x directly challenges the PPE ... typically achieved by
adjusting the width of the internal datapath (e.g., from 64-bit to 512-bit
or wider) and/or raising the clock frequency ... Both adjustments require
a more powerful FPGA."

For each target line rate this bench asks the planner
(``repro.core.plan_operating_point``, the one ``flexsfp paper scale``
prints) for the cheapest datapath that closes timing on the standard
clock grid, rebuilds the NAT at that width, and reports the resource growth and whether each catalog device still
fits — reproducing the qualitative claim that higher rates push the design
into larger parts and form factors.
"""

import pytest

from common import report
from repro.apps import StaticNat
from repro.core import ShellSpec, plan_operating_point
from repro.errors import TimingError
from repro.fpga import DEVICES, MPF200T
from repro.hls import compile_app

LINE_RATES = (10e9, 25e9, 40e9, 100e9)


def compute():
    results = []
    for line_rate in LINE_RATES:
        width, clock = plan_operating_point(line_rate)
        shell = ShellSpec(line_rate_bps=line_rate, datapath_bits=width)
        build = compile_app(StaticNat(), shell, clock_hz=clock, strict=False)
        fits = {
            name: device.fits(build.report.total) for name, device in DEVICES.items()
        }
        results.append(
            {
                "rate_gbps": line_rate / 1e9,
                "width": width,
                "clock_mhz": clock / 1e6,
                "app_lut": build.report.app_resources.lut4,
                "total_lut": build.report.total.lut4,
                "meets_timing": build.report.meets_timing,
                "fits": fits,
            }
        )
    return results


def test_scalability_sweep(benchmark):
    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    report(
        "§5.3 scalability: NAT operating points per line rate",
        ("Gbps", "width b", "clock MHz", "app LUT", "total LUT", "timing")
        + tuple(DEVICES),
        [
            (
                f"{r['rate_gbps']:.0f}",
                r["width"],
                f"{r['clock_mhz']:.2f}",
                r["app_lut"],
                r["total_lut"],
                r["meets_timing"],
            )
            + tuple("fit" if r["fits"][name] else "NO" for name in DEVICES)
            for r in results
        ],
    )
    r10, r25, r40, r100 = results
    # The prototype point: 64 bits at 156.25 MHz.
    assert (r10["width"], r10["clock_mhz"]) == (64, 156.25)
    # Every target rate closes timing somewhere on the grid.
    assert all(r["meets_timing"] for r in results)
    # Width grows monotonically with rate, reaching >=256b at 100G
    # (the paper's "512-bit or wider" is the conservative end).
    widths = [r["width"] for r in results]
    assert widths == sorted(widths)
    assert r100["width"] >= 256
    # Logic grows with width: 100G costs several times the 10G datapath.
    assert r100["app_lut"] > 3 * r10["app_lut"]
    # The MPF200T still fits the plain NAT at higher widths, but the
    # headroom shrinks monotonically (the "more powerful FPGA" pressure).
    headrooms = [MPF200T.lut4 - r["total_lut"] for r in results]
    assert headrooms == sorted(headrooms, reverse=True)


def test_two_way_scaling_needs_double(benchmark):
    """The Two-Way-Core's 2x multiplier shifts every crossover point."""

    def compute_two_way():
        rows = []
        for line_rate in (10e9, 25e9, 40e9):
            one_way = plan_operating_point(line_rate)
            two_way = plan_operating_point(2 * line_rate)
            rows.append((line_rate / 1e9, one_way, two_way))
        return rows

    rows = benchmark.pedantic(compute_two_way, rounds=1, iterations=1)
    report(
        "§5.3: one-way vs two-way operating points",
        ("Gbps", "one-way (b, MHz)", "two-way (b, MHz)"),
        [
            (f"{rate:.0f}", f"{ow[0]}b @ {ow[1] / 1e6:.2f}", f"{tw[0]}b @ {tw[1] / 1e6:.2f}")
            for rate, ow, tw in rows
        ],
    )
    for _, one_way, two_way in rows:
        # Two-way needs at least as much raw datapath bandwidth, and never
        # a narrower bus, than the one-way configuration.
        assert two_way[0] * two_way[1] >= one_way[0] * one_way[1]
        assert two_way[0] >= one_way[0]
    # At 2x100G no single pipeline closes: the per-frame bubble caps the
    # minimum-frame rate at clock/2 (< 2x148.8 Mpps even at 400 MHz), so a
    # bidirectional 100G module needs parallel PPE pipelines — out of the
    # FlexSFP scope by design (§5.3 "SmartNIC vs FlexSFP").
    with pytest.raises(TimingError):
        plan_operating_point(200e9)
