"""Sharded fleet-scale simulation: deterministic fan-out, exact fan-in.

The paper's deployment story is a *fleet* of FlexSFP modules, not one;
this package runs N independent scenario shards across OS processes and
merges their metrics into one fleet-wide view that is bit-identical to
the sequential run — per-shard seeds are derived, not drawn, and the
metric merge is a commutative/associative fold.

Execution is *supervised*: each worker carries a heartbeat and an
optional deadline, crashes and hangs cost one bounded deterministic
retry rather than the campaign, completed shards checkpoint to an
append-only journal for ``--resume``, and exhausted retries degrade into
an explicit completeness block instead of silent partial coverage.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "journal": ("ShardJournal", "load_journal", "spec_digest"),
        "merge": (
            "MergeKind", "classify", "histogram_percentile", "merge_histogram_states",
            "merge_metrics", "merge_values",
        ),
        "runner": (
            "SHARD_SEED_LABEL", "FleetRunResult", "ShardResult", "run_shard",
            "shard_spec",
        ),
        "seeds": ("derive_shard_seed", "shard_seeds"),
        "supervisor": (
            "Completeness", "ShardError", "ShardFailure", "SupervisorPolicy",
            "SupervisorTelemetry", "run_shard_safe", "run_sharded",
        ),
    },
)
