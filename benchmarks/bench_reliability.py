"""§5.3 failure recovery — VCSEL wear-out, diagnosis, repair economics.

Regenerates the section's qualitative claims as numbers: lognormal laser
lifetimes dominate module reliability; the module's internal telemetry
distinguishes laser degradation from driver faults; and component-level
laser replacement is economic for a ~$275 FlexSFP but never for a ~$10
SFP.
"""

import pytest

from common import fmt_pct, report
from repro.costmodel import FlexSfpBom
from repro.testbed import (
    LaserHealth,
    LaserTelemetry,
    ModuleHealthMonitor,
    VcselWearModel,
    fleet_failure_fraction,
    repair_economics,
)
from repro.testbed.reliability import NOMINAL_BIAS_MA

HORIZONS_YEARS = (3.0, 5.0, 8.0, 12.0, 20.0)
FLEET = 8_000


def compute():
    model = VcselWearModel(seed=17)
    fractions = [
        (h, fleet_failure_fraction(VcselWearModel(seed=17), h, FLEET))
        for h in HORIZONS_YEARS
    ]

    # Diagnosis sweep: modules of increasing age plus one driver fault.
    monitor = ModuleHealthMonitor()
    diagnosis = [
        (f"laser @ {age:.0f}y/12y", monitor.classify(monitor.telemetry_at(age, 12.0)).value)
        for age in (2.0, 10.0, 13.0)
    ]
    diagnosis.append(
        (
            "driver fault",
            monitor.classify(
                LaserTelemetry(bias_ma=NOMINAL_BIAS_MA, tx_power_dbm=-12.0)
            ).value,
        )
    )

    flexsfp_cost = sum(FlexSfpBom().total_range()) / 2
    economics = [
        ("standard SFP", repair_economics(module_cost_usd=10.0)),
        ("FlexSFP", repair_economics(module_cost_usd=flexsfp_cost)),
    ]
    return fractions, diagnosis, economics


def test_reliability():
    fractions, diagnosis, economics = compute()
    report(
        "§5.3 reliability: fleet laser-failure fraction (lognormal TTF, median 12y)",
        ("horizon (y)", "failed fraction"),
        [(f"{h:.0f}", fmt_pct(f)) for h, f in fractions],
    )
    report(
        "§5.3 diagnosis from internal telemetry",
        ("module state", "classified as"),
        diagnosis,
    )
    report(
        "§5.3 repair economics (laser + labor / rework yield)",
        ("module", "module $", "repair $", "repair worthwhile", "saving $"),
        [
            (
                name,
                f"{d.module_cost_usd:.0f}",
                f"{d.repair_cost_usd:.0f}",
                d.repair_worthwhile,
                f"{d.saving_usd:.0f}",
            )
            for name, d in economics
        ],
    )

    # Shape: failure fraction grows with horizon, ~half the fleet at the
    # median lifetime.
    values = [f for _, f in fractions]
    assert values == sorted(values)
    assert dict(fractions)[12.0] == pytest.approx(0.5, abs=0.05)
    # Diagnosis distinguishes the §5.3 fault classes.
    assert dict(diagnosis) == {
        "laser @ 2y/12y": LaserHealth.HEALTHY.value,
        "laser @ 10y/12y": LaserHealth.DEGRADING.value,
        "laser @ 13y/12y": LaserHealth.LASER_FAILED.value,
        "driver fault": LaserHealth.DRIVER_FAULT.value,
    }
    # Economics: discard the cheap SFP, repair the FlexSFP.
    by_name = dict(economics)
    assert not by_name["standard SFP"].repair_worthwhile
    assert by_name["FlexSFP"].repair_worthwhile
    assert by_name["FlexSFP"].saving_usd > 200
