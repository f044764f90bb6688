"""Static analysis for the FlexSFP build flow and for the repo itself.

Three analyzers share one :class:`Finding` model:

* :mod:`~repro.analysis.irverify` — semantic checks over pipeline IR.
* :mod:`~repro.analysis.xdpcheck` — AST analysis of XDP packet functions.
* :mod:`~repro.analysis.simlint` — a determinism linter over sim-critical
  source (protecting the golden-determinism guarantees).

:func:`check_app` is the aggregate entry point the compiler
(``compile_app``) and the ``flexsfp check`` CLI subcommand both use.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "appcheck": ("apps_report", "check_app"),
        "effects": (
            "EffectSummary", "LineRateVerdict", "StageEffect", "analyze_app",
            "analyze_pipeline", "corpus_digest", "effect_findings",
            "fusion_engagement", "line_rate_verdict",
        ),
        "findings": (
            "Finding", "Severity", "errors", "findings_report", "severity_counts",
            "sort_findings",
        ),
        "irverify": ("verify_pipeline",),
        "simlint": ("default_lint_root", "lint_file", "lint_paths", "lint_source"),
        "xdpcheck": ("check_program", "scan_source_file"),
    },
)
