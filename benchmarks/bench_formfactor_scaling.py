"""§6 research question — can the approach extend to QSFP-DD / OSFP?

"Can this approach be extended to higher-speed and higher-density form
factors like QSFP-DD or OSFP while meeting power and thermal constraints?"

For each (line rate, form factor) pair this bench plans a NAT operating
point, prices it, runs the power model with lane-scaled SerDes, and
checks the MSA power envelope — producing the feasibility frontier the
paper leaves as future work.
"""


from common import report
from repro.apps import StaticNat
from repro.core import ShellSpec, plan_operating_point
from repro.fpga import envelope_report
from repro.hls import compile_app

RATES_GBPS = (10.0, 25.0, 40.0, 100.0)


def compute():
    """``(rate, form factor, module W, envelope W, verdict)`` per pair.

    The operating point is the §5.3 planner's and the rows are
    ``envelope_report``'s: what ``flexsfp paper scale`` / ``envelope`` print.
    """
    rows = []
    for rate in RATES_GBPS:
        width, clock = plan_operating_point(rate * 1e9)
        shell = ShellSpec(line_rate_bps=rate * 1e9, datapath_bits=width)
        build = compile_app(StaticNat(), shell, clock_hz=clock, strict=False)
        sweep = envelope_report(rate, build.report.total, build.report.timing.clock_hz)
        rows += [(rate, *row) for row in sweep.rows]
    return rows


def test_formfactor_scaling():
    rows = compute()
    report(
        "§6: FlexSFP power vs MSA envelopes across form factors",
        ("Gbps", "form factor", "module W", "envelope W", "verdict"),
        [(f"{rate:.0f}", *row) for rate, *row in rows],
    )
    verdicts = {(rate, ff): verdict for rate, ff, _w, _envelope, verdict in rows}
    # The prototype story: 10G fits the SFP+ envelope.
    assert verdicts[(10.0, "SFP+")] == "fits"
    # 25G doesn't fit an SFP+ electrically, but SFP28 carries it.
    assert verdicts[(25.0, "SFP+")] == "no lanes"
    assert verdicts[(25.0, "SFP28")] == "fits"
    # 100G: single-lane form factors are out; QSFP-DD/OSFP envelopes
    # absorb the wide-datapath design — the §6 answer is "yes, with the
    # larger MSAs' power classes".
    assert verdicts[(100.0, "SFP+")] == "no lanes"
    assert verdicts[(100.0, "QSFP-DD")] == "fits"
    assert verdicts[(100.0, "OSFP")] == "fits"
    # And the envelope question is real: the smallest form factor with
    # enough lanes for 100G (QSFP28) is down to <10% power headroom for a
    # *simple* NAT — anything heavier pushes into QSFP-DD/OSFP classes.
    assert verdicts[(100.0, "QSFP28")] == "fits"
    watts = {(rate, ff): (float(w), envelope) for rate, ff, w, envelope, _ in rows if w != "-"}
    module_w, envelope_w = watts[(100.0, "QSFP28")]
    assert (envelope_w - module_w) / envelope_w < 0.10
