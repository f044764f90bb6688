"""The paper's figures, one row each, checked against the library.

Every figure of EXPERIMENTS' Table 1, Table 2, Table 3 and §5 power
sections, and Figure 2's prototype inventory, is one row of ``CLAIMS``:
a claim id, the paper's figure and one tolerance.  ``measured`` reads
each id's value from the function ``flexsfp paper <what>`` renders
(Figure 2's from a default module, the prototype), each table once per
module.  No other test or bench states these figures.  Figure 1 is not
here: its values come from simulations built inside
``benchmarks/bench_fig1_architectures.py``, not from a library function.

A tolerance is one of ``EXACT`` (equal), ``("abs", x)`` / ``("rel", x)``
(``pytest.approx`` with that tolerance alone), ``BAND`` (the figure is an
inclusive ``(low, high)`` band holding the measured number or band),
``BELOW`` / ``ABOVE`` (strictly less / more than the figure).
"""

import math

import pytest

from repro.apps import create_app
from repro.core import FlexSFPModule, ShellSpec
from repro.costmodel import (
    DPU_BF2,
    MANY_CORE,
    FlexSfpBom,
    capex_saving_vs,
    power_reduction_vs,
    table3_rows,
)
from repro.fpga import table2_rows
from repro.hls import compile_app
from repro.nfv import Deployment
from repro.sim import Simulator
from repro.testbed import PowerTestbed

EXACT, BAND, BELOW, ABOVE = ("exact", None), ("band", None), ("below", None), ("above", None)

#: The apps whose module power the §2 envelope claim is checked on.
ENVELOPE_APPS = ("passthrough", "nat", "firewall", "telemetry", "loadbalancer")

CLAIMS = [
    # Table 1: the NAT case study on the MPF200T (4LUT / FF / uSRAM / LSRAM).
    ("table1.mi_v.lut4", 8_696, EXACT),
    ("table1.mi_v.ff", 376, EXACT),
    ("table1.mi_v.usram", 6, EXACT),
    ("table1.mi_v.lsram", 4, EXACT),
    ("table1.elec_if.lut4", 6_824, EXACT),
    ("table1.elec_if.ff", 6_924, EXACT),
    ("table1.elec_if.usram", 118, EXACT),
    ("table1.elec_if.lsram", 0, EXACT),
    ("table1.opt_if.lut4", 6_813, EXACT),
    ("table1.opt_if.ff", 6_924, EXACT),
    ("table1.opt_if.usram", 118, EXACT),
    ("table1.opt_if.lsram", 0, EXACT),
    ("table1.nat_app.lut4", 9_122, ("rel", 0.10)),
    ("table1.nat_app.ff", 11_294, ("rel", 0.10)),
    ("table1.nat_app.usram", 36, EXACT),
    ("table1.nat_app.lsram", 160, EXACT),
    ("table1.used.lut4", 31_455, ("rel", 0.05)),
    ("table1.used.ff", 25_518, ("rel", 0.05)),
    ("table1.used.usram", 278, EXACT),
    ("table1.used.lsram", 164, EXACT),
    ("table1.util.lut4", 0.16, ("abs", 0.02)),
    ("table1.util.ff", 0.13, ("abs", 0.02)),
    ("table1.util.usram", 0.15, ("abs", 0.02)),
    ("table1.util.lsram", 0.26, ("abs", 0.02)),
    ("table1.datapath_bits", 64, EXACT),
    ("table1.clock_mhz", 156.25, EXACT),
    ("table1.meets_timing", True, EXACT),
    # Table 2: published designs normalized to 4-input LEs (LUT6 x 1.6, ALM x 2).
    ("table2.flowblaze.logic_le", 115_000, ("rel", 0.01)),
    ("table2.pigasus.logic_le", 416_000, ("rel", 0.01)),
    ("table2.hxdp.logic_le", 109_000, ("rel", 0.01)),
    ("table2.clicknp.logic_le", 388_000, ("rel", 0.01)),
    ("table2.flexsfp.logic_le", 192_000, ("rel", 0.01)),
    ("table2.flexsfp.bram_kbit", 13_000, ABOVE),
    # Table 3: $ and W per 10 Gb/s (1k units); the FlexSFP row is derived.
    ("table3.dpu.usd_per_10g", (300, 400), EXACT),
    ("table3.dpu.w_per_10g", 15, EXACT),
    ("table3.many_core.usd_per_10g", (100, 150), EXACT),
    ("table3.many_core.w_per_10g", 5, EXACT),
    ("table3.fpga_nic.usd_per_10g", (200, 400), BAND),
    ("table3.fpga_nic.w_per_10g", (7, 10), BAND),
    ("table3.flexsfp.usd_per_10g.low", 250, ("abs", 10)),
    ("table3.flexsfp.usd_per_10g.high", 300, ("abs", 10)),
    ("table3.flexsfp.w_per_10g", 1.52, ("abs", 0.05)),
    ("table3.flexsfp.usd_at_100k_units", 250, BELOW),
    ("table3.capex_saving_vs_many_core", 2 / 3, ("abs", 0.1)),
    ("table3.power_reduction_vs_dpu", 10, ("rel", 0.15)),
    # §5 power: the Thunderbolt NIC testbed under line-rate RX+TX stress.
    ("power.nic_w", 3.800, ("rel", 1e-6)),
    ("power.nic_sfp_w", 4.693, ("abs", 0.01)),
    ("power.nic_flexsfp_w", 5.320, ("abs", 0.02)),
    ("power.sfp_w", 0.893, ("abs", 0.01)),
    ("power.flexsfp_over_sfp_w", 0.63, ("abs", 0.05)),
    ("power.flexsfp_w", 1.52, ("abs", 0.05)),
    *((f"power.envelope.{app}_w", (1.0, 3.0), BAND) for app in ENVELOPE_APPS),
    # Figure 2: the MPF200T SFP+ prototype.
    ("fig2.fpga", "MPF200T", EXACT),
    ("fig2.logic_elements", 200_000, ("rel", 0.05)),
    ("fig2.sram_kbit", 13_300, ("rel", 0.05)),
    ("fig2.flash_mbit", 128, EXACT),
    ("fig2.transceivers", (2, math.inf), BAND),
    ("fig2.transceiver_gbps", 12.7, EXACT),
]

TABLE1_ROWS = {"Mi-V": "mi_v", "Elec. I/F": "elec_if", "Opt. I/F": "opt_if",
               "nat app": "nat_app", "Used": "used"}  # fmt: skip
TABLE1_COLUMNS = ("lut4", "ff", "usram", "lsram")
TABLE2_ROWS = {"FlowBlaze (1 stage)": "flowblaze", "Pigasus": "pigasus",
               "hXDP (1 core)": "hxdp", "ClickNP IPSec GW": "clicknp",
               "FlexSFP (MPF200T)": "flexsfp"}  # fmt: skip
TABLE3_ROWS = {"DPU (BF-2)": "dpu", "Many-core (Ag./DSC)": "many_core",
               "FPGA (U25/U50)": "fpga_nic", "FlexSFP": "flexsfp"}  # fmt: skip


@pytest.fixture(scope="module")
def measured(nat_build) -> dict[str, object]:
    """Every claim id's measured value."""
    values: dict[str, object] = {}
    # `flexsfp paper table1` (the NAT build's Table 1 rows).
    for name, *cells in nat_build.table1_rows():
        if name in TABLE1_ROWS:
            for column, cell in zip(TABLE1_COLUMNS, cells):
                values[f"table1.{TABLE1_ROWS[name]}.{column}"] = cell
    for column in TABLE1_COLUMNS:
        values[f"table1.util.{column}"] = nat_build.utilization[column]
    values["table1.datapath_bits"] = nat_build.timing.datapath_bits
    values["table1.clock_mhz"] = nat_build.timing.clock_hz / 1e6
    values["table1.meets_timing"] = nat_build.meets_timing
    # `flexsfp paper table2`.
    table2 = {TABLE2_ROWS[row["name"]]: row for row in table2_rows()}
    for key, row in table2.items():
        values[f"table2.{key}.logic_le"] = row["logic_le"]
    values["table2.flexsfp.bram_kbit"] = table2["flexsfp"]["bram_kbit"]
    # `flexsfp paper table3` and `paper bom --units 100000`.
    for row in table3_rows(units=1_000):
        key = f"table3.{TABLE3_ROWS[row['solution']]}"
        values[f"{key}.usd_per_10g"] = row["usd_per_10g"]
        values[f"{key}.w_per_10g"] = row["w_per_10g"]
    low, high = values.pop("table3.flexsfp.usd_per_10g")
    values["table3.flexsfp.usd_per_10g.low"] = low
    values["table3.flexsfp.usd_per_10g.high"] = high
    values["table3.flexsfp.usd_at_100k_units"] = FlexSfpBom().total_range(100_000)[0]
    values["table3.capex_saving_vs_many_core"] = capex_saving_vs(MANY_CORE)
    values["table3.power_reduction_vs_dpu"] = power_reduction_vs(DPU_BF2)
    # `flexsfp paper power [--app APP]`.
    testbed = PowerTestbed()
    bare, sfp, flex = testbed.paper_series(nat_build.total, nat_build.timing.clock_hz)
    values["power.nic_w"] = bare.watts
    values["power.nic_sfp_w"] = sfp.watts
    values["power.nic_flexsfp_w"] = flex.watts
    values["power.sfp_w"] = sfp.watts - bare.watts
    values["power.flexsfp_over_sfp_w"] = flex.watts - sfp.watts
    values["power.flexsfp_w"] = flex.watts - bare.watts
    for app in ENVELOPE_APPS:
        build = nat_build if app == "nat" else compile_app(create_app(app), ShellSpec()).report
        bare, _, flex = testbed.paper_series(build.total, build.timing.clock_hz)
        values[f"power.envelope.{app}_w"] = flex.watts - bare.watts
    # The prototype: a default module.
    module = FlexSFPModule(Simulator(), "proto", Deployment.solo(create_app("nat")))
    values["fig2.fpga"] = module.device.name
    values["fig2.logic_elements"] = module.device.logic_elements
    values["fig2.sram_kbit"] = module.device.sram_kbit
    values["fig2.flash_mbit"] = module.flash.size_bits / (1024 * 1024)
    values["fig2.transceivers"] = module.device.transceivers
    values["fig2.transceiver_gbps"] = module.device.transceiver_gbps
    return values


def holds(value, paper, tolerance) -> bool:
    kind, amount = tolerance
    if kind == "exact":
        return value == paper
    if kind == "band":
        low, high = value if isinstance(value, tuple) else (value, value)
        return paper[0] <= low and high <= paper[1]
    if kind == "below":
        return value < paper
    if kind == "above":
        return value > paper
    return value == pytest.approx(paper, **{kind: amount})


@pytest.mark.parametrize(
    "claim, paper, tolerance", CLAIMS, ids=[claim for claim, *_ in CLAIMS]
)
def test_claim(measured, claim, paper, tolerance):
    value = measured[claim]
    assert holds(value, paper, tolerance), f"{claim}: measured {value!r}, paper {paper!r} {tolerance}"


def test_every_measured_value_is_claimed(measured):
    assert sorted(measured) == sorted(claim for claim, *_ in CLAIMS)
