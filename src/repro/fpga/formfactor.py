"""Pluggable-module form factors and their power/thermal envelopes.

§5.3/§6: "Higher-speed interconnects rely on larger form factors like
QSFP and OSFP.  These modules are not only physically larger than a
FlexSFP but are also designed with higher power and thermal envelopes."
The MSAs (SFF-8431, QSFP-DD, OSFP) define the envelopes; this catalog
records them so the scalability analysis can ask the §6 question
quantitatively: *does a FlexSFP-at-rate-X fit form factor Y's budget?*
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import Report
from ..errors import ConfigError
from ..testbed.power import fpga_power_w
from .resources import ResourceVector


# Thermal limits common to pluggable optics: case temperature ceiling for
# standard (non-industrial) modules, typical faceplate ambient in a
# well-cooled chassis.
MAX_CASE_TEMP_C = 70.0
DEFAULT_AMBIENT_C = 45.0


@dataclass(frozen=True)
class FormFactor:
    """One MSA form factor: lanes, rate ceiling, power class, thermals.

    ``thermal_resistance_c_per_w`` is the case-to-ambient resistance the
    cage/heatsink system achieves — larger modules get airflow-coupled
    riding heatsinks, hence the lower values.
    """

    name: str
    msa: str
    lanes: int
    max_rate_gbps: float
    power_envelope_w: float  # top power class commonly supported
    typical_optics_w: float  # optical sub-assembly draw at the max rate
    board_area_mm2: float  # usable PCB area for extra logic
    thermal_resistance_c_per_w: float = 8.0

    def lanes_for(self, rate_gbps: float) -> int:
        """Electrical lanes a given rate occupies (ceil over lane rate)."""
        if rate_gbps <= 0:
            raise ConfigError("rate must be positive")
        if rate_gbps > self.max_rate_gbps:
            raise ConfigError(
                f"{rate_gbps:.0f} G exceeds {self.name}'s "
                f"{self.max_rate_gbps:.0f} G ceiling"
            )
        lane_rate = self.max_rate_gbps / self.lanes
        return max(1, -(-int(rate_gbps) // int(lane_rate)))


# Envelope figures from the respective MSAs' top power classes.
SFP_PLUS = FormFactor(
    name="SFP+",
    msa="SFF-8431",
    lanes=1,
    max_rate_gbps=10.0,
    power_envelope_w=2.5,  # power level III
    typical_optics_w=0.9,
    board_area_mm2=330.0,
    thermal_resistance_c_per_w=9.0,
)

SFP28 = FormFactor(
    name="SFP28",
    msa="SFF-8402",
    lanes=1,
    max_rate_gbps=25.0,
    power_envelope_w=3.0,
    typical_optics_w=1.1,
    board_area_mm2=330.0,
    thermal_resistance_c_per_w=8.5,
)

QSFP28 = FormFactor(
    name="QSFP28",
    msa="SFF-8665",
    lanes=4,
    max_rate_gbps=100.0,
    power_envelope_w=5.0,  # class 5
    typical_optics_w=2.5,
    board_area_mm2=620.0,
    thermal_resistance_c_per_w=4.5,
)

QSFP_DD = FormFactor(
    name="QSFP-DD",
    msa="QSFP-DD MSA rev 7.1",
    lanes=8,
    max_rate_gbps=400.0,
    power_envelope_w=14.0,  # class 7+
    typical_optics_w=6.0,
    board_area_mm2=800.0,
    thermal_resistance_c_per_w=1.7,
)

OSFP = FormFactor(
    name="OSFP",
    msa="OSFP MSA",
    lanes=8,
    max_rate_gbps=800.0,
    power_envelope_w=17.0,
    typical_optics_w=8.0,
    board_area_mm2=960.0,
    thermal_resistance_c_per_w=1.4,
)

FORM_FACTORS: dict[str, FormFactor] = {
    ff.name: ff for ff in (SFP_PLUS, SFP28, QSFP28, QSFP_DD, OSFP)
}


@dataclass(frozen=True)
class EnvelopeCheck:
    """Result of a form-factor feasibility check.

    ``fits`` requires both the MSA power class *and* the case-temperature
    ceiling: dissipating the module's power across the cage's thermal
    resistance must keep the case at or below :data:`MAX_CASE_TEMP_C`
    from the given ambient.
    """

    form_factor: str
    rate_gbps: float
    fpga_w: float
    optics_w: float
    total_w: float
    envelope_w: float
    fits: bool
    headroom_w: float
    case_temp_c: float = 0.0
    thermally_ok: bool = True


def envelope_check(
    form_factor: FormFactor,
    rate_gbps: float,
    design: ResourceVector,
    clock_hz: float,
    activity: float = 1.0,
    ambient_c: float = DEFAULT_AMBIENT_C,
) -> EnvelopeCheck:
    """Can a programmable module at ``rate_gbps`` live in this form factor?

    Total draw = the FPGA (first-order CMOS model, SerDes sized to the
    lanes the rate occupies) plus the form factor's optical sub-assembly.
    The verdict covers both constraints §4 names for the footprint: the
    MSA power class and thermal dissipation (case-temperature ceiling).
    """
    lanes = form_factor.lanes_for(rate_gbps)
    fpga = fpga_power_w(design, clock_hz, activity=activity, serdes_lanes=2 * lanes)
    total = fpga + form_factor.typical_optics_w
    case_temp = ambient_c + total * form_factor.thermal_resistance_c_per_w
    thermally_ok = case_temp <= MAX_CASE_TEMP_C
    return EnvelopeCheck(
        form_factor=form_factor.name,
        rate_gbps=rate_gbps,
        fpga_w=fpga,
        optics_w=form_factor.typical_optics_w,
        total_w=total,
        envelope_w=form_factor.power_envelope_w,
        fits=total <= form_factor.power_envelope_w and thermally_ok,
        headroom_w=form_factor.power_envelope_w - total,
        case_temp_c=case_temp,
        thermally_ok=thermally_ok,
    )


def envelope_report(
    rate_gbps: float, design: ResourceVector, clock_hz: float
) -> Report:
    """The §6 sweep: ``design`` at ``rate_gbps`` against every MSA envelope.

    One :func:`envelope_check` row per form factor; one without the lanes
    for the rate reads "no lanes" instead of raising.  ``flexsfp paper
    envelope`` and ``bench_formfactor_scaling`` both print these rows.
    """
    rows = []
    for form_factor in FORM_FACTORS.values():
        try:
            check = envelope_check(form_factor, rate_gbps, design, clock_hz)
        except ConfigError:
            rows.append(
                (form_factor.name, "-", form_factor.power_envelope_w, "no lanes")
            )
            continue
        verdict = "fits" if check.fits else "over budget"
        rows.append(
            (form_factor.name, f"{check.total_w:.2f}", check.envelope_w, verdict)
        )
    headers = ("form factor", "module W", "envelope W", "verdict")
    return Report("envelope", headers, rows, {"gbps": rate_gbps})
