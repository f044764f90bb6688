"""Static feasibility for multi-tenant deployments.

Prices the crossbar plus every tenant's pipeline partition with the
existing FPGA estimator, then checks the deployment against the device
and the shell's line rate:

* ``nfv-oversubscription`` (error) — tenant resource shares sum past
  the whole app partition.
* ``nfv-partition-overflow`` (error) — a tenant's priced pipeline
  does not fit inside its share of the partition (device capacity minus
  shell base minus crossbar, scaled by the tenant's share).
* ``nfv-overflow`` (error) — the deployment as a whole (shell +
  crossbar + every tenant pipeline) overflows the device.
* ``nfv-line-rate`` (error) — a tenant's worst-case frame cannot
  sustain its share of the shell's offered rate at any standard clock,
  derived from the PR 8 effect/timing analysis
  (:func:`repro.analysis.effects.line_rate_verdict`).

``flexsfp check --nfv`` prints these findings; ``FlexSFPModule`` raises
:class:`~repro.errors.ConfigError` on any error finding, so an
over-subscribed deployment is rejected statically, before any packet
is processed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..analysis.findings import Finding, Severity, sort_findings
from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports nfv)
    from ..core.shells import ShellSpec
    from ..fpga.resources import FPGADevice, ResourceVector
    from ..hls.ir import PipelineSpec

    from .deployment import Deployment

#: Allow float fuzz when summing shares (0.5 + 0.25 + 0.25 must pass).
_SHARE_EPSILON = 1e-9


@dataclass(frozen=True)
class DeploymentPrice:
    """The priced deployment: shell base + crossbar + per-tenant pipelines."""

    shell_base: ResourceVector
    crossbar: ResourceVector
    per_tenant: dict[str, ResourceVector]
    total: ResourceVector
    fits: bool
    utilization: dict[str, float]

    def describe(self) -> dict[str, Any]:
        return {
            "crossbar": self.crossbar.as_dict(),
            "per_tenant": {
                name: vec.as_dict() for name, vec in self.per_tenant.items()
            },
            "total": self.total.as_dict(),
            "fits": self.fits,
            "utilization": self.utilization,
        }


def _resolve(
    deployment: Deployment,
    shell: ShellSpec | None,
    device: FPGADevice | None,
) -> tuple[ShellSpec, FPGADevice]:
    from ..core.shells import PROTOTYPE_SHELL
    from ..fpga.resources import MPF200T

    resolved_shell = deployment.shell or shell or PROTOTYPE_SHELL
    resolved_device = deployment.device or device or MPF200T
    return resolved_shell, resolved_device


def price_deployment(
    deployment: Deployment,
    shell: ShellSpec | None = None,
    device: FPGADevice | None = None,
) -> DeploymentPrice:
    """Price every component of *deployment* on *device*.

    Tenant pipelines are priced, not synthesized (``price_pipeline`` is
    ``compile_app``'s ``app_resources``), so the price is always produced
    — feasibility is reported, not raised, because the caller here is a
    static check that wants to see the overflow.  Only a shell no
    standard clock sustains raises, as its build would.
    """
    return _price(deployment, *_resolve(deployment, shell, device))[0]


def _price(
    deployment: Deployment, shell: ShellSpec, device: FPGADevice
) -> tuple[DeploymentPrice, dict[str, PipelineSpec]]:
    """:func:`price_deployment`, plus each tenant's pipeline: its
    application is built once."""
    from ..fpga import estimator
    from ..fpga.resources import ResourceVector
    from ..hls.compiler import price_pipeline

    shell.standard_ppe_clock_hz()
    shell_base = shell.base_resources()
    xbar = (
        estimator.crossbar(len(deployment.tenants), shell.datapath_bits)
        if deployment.multi_tenant
        else ResourceVector()
    )
    pipelines: dict[str, PipelineSpec] = {}
    per_tenant: dict[str, ResourceVector] = {}
    total = shell_base + xbar
    for spec in deployment.tenants:
        pipeline = pipelines[spec.name] = spec.build_app().pipeline_spec()
        app_total, _ = price_pipeline(pipeline, shell.datapath_bits)
        per_tenant[spec.name] = app_total
        total = total + app_total
    price = DeploymentPrice(
        shell_base=shell_base,
        crossbar=xbar,
        per_tenant=per_tenant,
        total=total,
        fits=device.fits(total),
        utilization=device.utilization(total),
    )
    return price, pipelines


def check_deployment(
    deployment: Deployment,
    shell: ShellSpec | None = None,
    device: FPGADevice | None = None,
) -> list[Finding]:
    """Static feasibility findings for *deployment* (see module docs)."""
    return _check(deployment, shell, device)[0]


def _check(
    deployment: Deployment, shell: ShellSpec | None, device: FPGADevice | None
) -> tuple[list[Finding], DeploymentPrice]:
    """:func:`check_deployment` plus the price it took."""
    from ..analysis.effects import analyze_pipeline, line_rate_verdict

    resolved_shell, resolved_device = _resolve(deployment, shell, device)
    findings: list[Finding] = []

    share_total = deployment.share_total()
    if share_total > 1.0 + _SHARE_EPSILON:
        findings.append(
            Finding(
                rule="nfv-oversubscription",
                severity=Severity.ERROR,
                location="deployment:shares",
                message=(
                    f"tenant shares sum to {share_total:.3f} — the app "
                    "partition is over-subscribed"
                ),
                hint="reduce per-tenant shares so they sum to at most 1.0",
            )
        )

    price, pipelines = _price(deployment, resolved_shell, resolved_device)
    capacity = resolved_device.capacity.as_dict()
    overhead = (price.shell_base + price.crossbar).as_dict()
    partition = {
        kind: capacity[kind] - overhead.get(kind, 0) for kind in capacity
    }
    for spec in deployment.tenants:
        used = price.per_tenant[spec.name].as_dict()
        budget = {
            kind: int(avail * spec.share) for kind, avail in partition.items()
        }
        over = {
            kind: (used.get(kind, 0), budget[kind])
            for kind in budget
            if used.get(kind, 0) > budget[kind]
        }
        if over:
            detail = ", ".join(
                f"{kind} {need} > {have}"
                for kind, (need, have) in sorted(over.items())
            )
            findings.append(
                Finding(
                    rule="nfv-partition-overflow",
                    severity=Severity.ERROR,
                    location=f"tenant:{spec.name}",
                    message=(
                        f"tenant {spec.name!r} ({spec.app_name}) overflows "
                        f"its {spec.share:.0%} slot budget: {detail}"
                    ),
                    hint="raise the tenant's share or pick a smaller app",
                )
            )
    if not price.fits:
        findings.append(
            Finding(
                rule="nfv-overflow",
                severity=Severity.ERROR,
                location="deployment:total",
                message=(
                    f"deployment overflows {resolved_device.name}: "
                    + "; ".join(resolved_device.overflow_report(price.total))
                ),
                hint="drop a tenant or target a larger device",
            )
        )

    for spec in deployment.tenants:
        tenant_shell = replace(
            resolved_shell,
            line_rate_bps=resolved_shell.line_rate_bps * spec.share,
        )
        try:
            verdict = line_rate_verdict(
                analyze_pipeline(pipelines[spec.name]), tenant_shell
            )
        except ReproError:
            # No standard clock sustains even the empty pipeline at this
            # rate — the shell itself is infeasible; not a tenant finding.
            continue
        if not verdict.sustained:
            findings.append(
                Finding(
                    rule="nfv-line-rate",
                    severity=Severity.ERROR,
                    location=f"tenant:{spec.name}",
                    message=(
                        f"tenant {spec.name!r} ({spec.app_name}) cannot "
                        f"sustain its {spec.share:.0%} share of "
                        f"{resolved_shell.line_rate_bps / 1e9:.0f}G: "
                        f"worst-case frame needs {verdict.worst_frame} "
                        f"cycles ({verdict.conflict_cycles} from table-port "
                        f"conflicts) at "
                        f"{verdict.timing.clock_hz / 1e6:.2f} MHz"
                    ),
                    hint="lower the tenant's share or simplify its pipeline",
                )
            )
    return sort_findings(findings), price


def deployment_report(
    deployment: Deployment,
    shell: ShellSpec | None = None,
    device: FPGADevice | None = None,
) -> tuple[list[Finding], list[str], dict[str, object], list]:
    """``flexsfp check --nfv``: ``(findings, targets, extra, text)``, the
    price as the document's ``nfv`` field and as text."""
    findings, price = _check(deployment, shell, device)
    price = price.describe()
    text = [
        f"nfv deployment: crossbar {price['crossbar']}, "
        f"{'fits' if price['fits'] else 'OVERFLOWS'} "
        f"(utilization {price['utilization']})",
        *(f"  tenant {name}: {vec}" for name, vec in price["per_tenant"].items()),
        "",
    ]
    target = "nfv:" + "+".join(spec.name for spec in deployment.tenants)
    return findings, [target], {"nfv": price}, text
