"""``repro.artifact`` — the unified ``flexsfp.run/1`` document + diff.

One artifact shape for every entry point, and one canonical
:func:`diff_artifacts` that answers "did configuration A and
configuration B compute the same thing" with a typed divergence report
instead of scattered test assertions.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "diff": (
            "ArtifactDiff", "DiffEntry", "DiffKind", "diff_artifacts",
            "is_semantic_metric", "semantic_metrics", "semantic_shard_digest",
        ),
        "run": (
            "RunArtifact", "artifact_from_bench", "artifact_from_fleet_result",
            "artifact_from_scenario_run", "environment_fingerprint", "load_artifact",
            "spec_digest_of",
        ),
    },
)
