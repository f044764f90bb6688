"""The aggregate static check the compiler and ``flexsfp check`` share."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..apps import create_app
from ..core.shells import ShellSpec
from ..fpga.resources import FPGADevice, MPF200T
from ..hls.xdp import XdpProgram
from .effects import (
    analyze_app,
    corpus_digest,
    effect_findings,
    fusion_engagement,
    line_rate_verdict,
)
from .findings import Finding, sort_findings
from .irverify import _verify_priced
from .xdpcheck import check_program

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..hls.compiler import Price
    from ..hls.ir import PipelineSpec


_PROOF_HEADERS = ("app", "proof", "engaged", "key_bits", "rewrite_bits", "digest", "blockers")
_STAGE_HEADERS = ("stage", "kind", "hdr r/w", "state r/w", "accesses", "time", "commutes")


def check_app(
    app,
    device: FPGADevice = MPF200T,
    shell: ShellSpec | None = None,
) -> list[Finding]:
    """All static findings for one application: XDP analysis + IR verify."""
    return _check_priced(app, app.pipeline_spec(), device, shell)[0]


def _check_priced(
    app, spec: PipelineSpec, device: FPGADevice, shell: ShellSpec | None
) -> tuple[list[Finding], Price | None]:
    """:func:`check_app` over ``app``'s ``spec``, plus the price the IR
    verifier took of it (see :func:`~repro.analysis.irverify._verify_priced`)."""
    findings: list[Finding] = []
    rewrites = None
    if isinstance(app, XdpProgram):
        findings += check_program(app)
        rewrites = list(app.rewrites)
    verified, price = _verify_priced(spec, device, shell, None, rewrites)
    return sort_findings(findings + verified), price


def apps_report(
    names: list[str],
    device: FPGADevice,
    shell: ShellSpec,
    effects: bool = False,
    fusibility: bool = False,
) -> tuple[list[Finding], list[str], dict[str, object], list]:
    """``flexsfp check APP...``: ``(findings, targets, extra, text)``.

    ``extra`` and ``text`` are the ``--effects`` / ``--fusibility`` half of
    the check document (see :func:`~repro.analysis.findings.findings_report`):
    per-application effect summaries with the line-rate verdict, the
    derived fusibility proofs, and the text form of both (proofs first).
    With neither flag they are empty.
    """
    findings: list[Finding] = []
    payloads: dict[str, dict] = {}
    proofs: list[tuple] = []
    fused: list[str] = []
    text: list = []
    for name in names:
        app = create_app(name)
        summary = analyze_app(app)
        findings += check_app(app, device=device, shell=shell)
        findings += effect_findings(app, shell, summary=summary)
        engaged = fusion_engagement(app, summary)
        if engaged is not None:
            fused.append(name)
        digest = summary.digest()
        if fusibility:
            proofs.append(
                (
                    name,
                    summary.burst_mode,
                    engaged or "-",
                    summary.key_bits,
                    summary.rewrite_bits,
                    digest,
                    "; ".join(summary.blockers) or "-",
                )
            )
        if effects:
            line_rate = line_rate_verdict(summary, shell).to_dict()
            payloads[name] = {
                **summary.to_dict(),
                "engaged_mode": engaged,
                "line_rate": line_rate,
                "digest": digest,
            }
            stages = [
                (
                    effect.stage,
                    effect.kind,
                    f"{effect.header_read_bits}/{effect.header_write_bits}",
                    f"{effect.state_read_bits}/{effect.state_write_bits}",
                    effect.table_accesses,
                    "yes" if effect.reads_time else "-",
                    "yes" if effect.commutative else "no",
                )
                for effect in summary.effects
            ]
            text += [
                f"{name}: mode={summary.burst_mode} engaged={engaged or '-'} "
                f"key={summary.key_bits}b rewrite={summary.rewrite_bits}b "
                f"digest={digest}",
                f"  line rate: {'sustains' if line_rate['sustained'] else 'REJECTS'} "
                f"{line_rate['clock_mhz']} MHz × {line_rate['datapath_bits']} b, "
                f"worst frame {line_rate['worst_frame']} B, "
                f"{line_rate['conflict_cycles']} conflict cycle(s)",
                (_STAGE_HEADERS, stages),
                "",
            ]
    extra: dict[str, object] = {"effects": payloads} if effects else {}
    if effects or fusibility:
        corpus = corpus_digest()
        extra["fusibility"] = {
            "fused": fused,
            "fused_count": len(fused),
            "corpus_digest": corpus,
        }
    if proofs:
        text = [
            (_PROOF_HEADERS, proofs),
            f"{len(fused)}/{len(proofs)} applications fuse (corpus digest {corpus})",
            "",
            *text,
        ]
    return findings, [f"app:{name}" for name in names], extra, text
