"""The shared finding model for every static analyzer.

All three analysis passes (:mod:`~repro.analysis.irverify`,
:mod:`~repro.analysis.xdpcheck`, :mod:`~repro.analysis.simlint`) report
through one :class:`Finding` record so the CLI, the compiler integration,
and CI artifacts speak a single vocabulary: a stable rule id, a severity,
a human location, the message, and an optional fix hint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .._util import Report


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` findings block compilation (a strict build raises) and fail
    the ``flexsfp check`` exit code; ``WARNING`` findings surface in
    :attr:`SynthesisReport.notes <repro.hls.compiler.SynthesisReport>`;
    ``INFO`` findings are advisory only.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


# Stable ordering for reports: errors first, then warnings, then info.
_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass(frozen=True)
class Finding:
    """One static-analysis result.

    Parameters
    ----------
    rule:
        Stable rule identifier (``ir-*``, ``xdp-*``, or ``det-*``).
    severity:
        :class:`Severity` of the finding.
    location:
        Where it was found — ``app:stage``, ``program:line``, or
        ``path:line`` depending on the analyzer.
    message:
        What is wrong.
    hint:
        How to fix it (empty when there is no mechanical fix).
    """

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.severity.value}[{self.rule}] {self.location}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def as_row(self) -> tuple[str, str, str, str, str]:
        """The CLI table row: (severity, rule, location, message, hint)."""
        return (self.severity.value, self.rule, self.location, self.message, self.hint)


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: severity, then location, then rule."""
    return sorted(
        findings,
        key=lambda f: (_SEVERITY_ORDER[f.severity], f.location, f.rule, f.message),
    )


def errors(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if f.severity is Severity.ERROR]


def severity_counts(findings: list[Finding]) -> dict[str, int]:
    counts = {level.value: 0 for level in Severity}
    for finding in findings:
        counts[finding.severity.value] += 1
    return counts


def findings_report(
    findings: list[Finding], targets: list[str], extra: dict[str, object], text: list
) -> Report:
    """The ``flexsfp check`` document: sorted findings, counts, targets.

    ``extra`` holds further fields of the document and ``text`` the blocks
    printed above the findings table (the effects / fusibility and NFV-price
    halves); an error finding makes the report not ``ok``.
    """
    findings = sort_findings(findings)
    counts = severity_counts(findings)
    headers = ("severity", "rule", "location", "message", "hint")
    rows = [finding.as_row() for finding in findings]
    if rows:
        text = [*text, (headers, rows), ""]
    summary = (
        f"checked {len(targets)} target(s): {counts['error']} error(s), "
        f"{counts['warning']} warning(s), {counts['info']} info"
    )
    extra = {"counts": counts, "targets": targets, **extra}
    return Report("check", headers, rows, extra, (*text, summary), not counts["error"])
