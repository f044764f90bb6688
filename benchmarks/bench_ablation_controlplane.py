"""Ablation — softcore vs SoC control plane (§4.1).

"SoC-based designs ... allow running standard OSes ... while more
expensive and power-hungry; softcore-based designs ... are sufficient for
many of the use cases."  This bench compares the two control-plane
classes on resources and module power for the NAT design.
"""


from common import report
from repro.apps import StaticNat
from repro.core import ControlPlaneClass, ShellSpec
from repro.hls import compile_app
from repro.testbed import flexsfp_power_w

SOC_HARD_CPU_EXTRA_W = 0.9  # hard ARM subsystem draw (not fabric power)


def compute():
    rows = []
    for cp_class in ControlPlaneClass:
        shell = ShellSpec(control_plane=cp_class)
        build = compile_app(StaticNat(), shell)
        fabric_power = flexsfp_power_w(
            build.report.total, build.report.timing.clock_hz, activity=1.0
        )
        total_power = fabric_power + (
            SOC_HARD_CPU_EXTRA_W if cp_class is ControlPlaneClass.SOC else 0.0
        )
        rows.append(
            {
                "class": cp_class.value,
                "lut": build.report.total.lut4,
                "ff": build.report.total.ff,
                "usram": build.report.total.usram,
                "power_w": total_power,
            }
        )
    return rows


def test_controlplane_class_ablation():
    rows = compute()
    report(
        "Ablation: softcore (Mi-V) vs SoC control plane (NAT design)",
        ("control plane", "LUT", "FF", "uSRAM", "module W"),
        [
            (r["class"], r["lut"], r["ff"], r["usram"], f"{r['power_w']:.2f}")
            for r in rows
        ],
    )
    softcore = next(r for r in rows if r["class"] == "softcore")
    soc = next(r for r in rows if r["class"] == "soc")
    # The softcore burns more fabric LUTs (the CPU lives in the fabric)...
    assert softcore["lut"] > soc["lut"]
    # ...but the SoC's hard CPU costs real power: the module leaves the
    # standard transceiver envelope's comfortable band.
    assert soc["power_w"] > softcore["power_w"] + 0.5
    assert softcore["power_w"] < 1.6  # the paper's ~1.5 W module
