"""The aggregate static check the compiler and ``flexsfp check`` share."""

from __future__ import annotations

from ..core.shells import ShellSpec
from ..fpga.resources import FPGADevice, MPF200T
from ..hls.xdp import XdpProgram
from .effects import analyze_pipeline, profile_findings
from .findings import Finding, sort_findings
from .irverify import verify_pipeline
from .xdpcheck import check_program


def check_app(
    app,
    device: FPGADevice = MPF200T,
    shell: ShellSpec | None = None,
) -> list[Finding]:
    """All static findings for one application: XDP analysis + IR verify.

    Also cross-checks any surviving hand-written ``compiled_profile``
    declaration against the derived effect summary — a mismatch is an
    error, so a stale fusion contract can never gate the compiled tier.
    """
    findings: list[Finding] = []
    rewrites = None
    if isinstance(app, XdpProgram):
        findings += check_program(app)
        rewrites = list(app.rewrites)
    spec = app.pipeline_spec()
    findings += verify_pipeline(
        spec, device=device, shell=shell, rewrites=rewrites
    )
    findings += profile_findings(app, analyze_pipeline(spec))
    return sort_findings(findings)
