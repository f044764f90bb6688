"""Sharded fleet-scale scenario execution.

A fleet run partitions a workload of ``spec.shards`` independent
scenario instances — each with its own simulator, module(s), links,
traffic, and metrics registry — across ``workers`` OS processes.  Each
shard runs under a seed derived deterministically from the root seed
(:func:`~repro.parallel.seeds.derive_shard_seed`), serializes its
metric snapshot, summary, histogram states and digest back to the
parent as plain picklable data, and the parent folds the shard results
in shard-index order.  Because the merge is commutative/associative and
the fold order is pinned, a K-worker run is bit-identical to the
sequential run of the same shards.

Workers prefer the ``fork`` start method where the platform offers it
(shards inherit the imported interpreter for free); ``spawn`` works the
same, just slower to start.  Nothing in a shard touches shared state:
the scenario spec is resolved — env knobs folded in — *once in the
parent*, so a worker never reads the environment.

This module is the shard half: the result types, the per-shard spec and
the worker entry point.  The fleet half, :func:`run_sharded`, lives in
:mod:`repro.parallel.supervisor` (which imports this module, never the
reverse): every worker runs under a shard supervisor (deadlines,
heartbeats, bounded deterministic retry, checkpoint journalling) rather
than a bare pool, so a crashed or hung worker costs one retry, never the
campaign.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from ..errors import ConfigError
from ..obs.registry import MetricValue
from ..obs.scenario import ScenarioSpec
from .merge import HistogramState
from .seeds import derive_shard_seed

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .supervisor import Completeness

SHARD_SEED_LABEL = "shard"


@dataclass(frozen=True)
class ShardResult:
    """One shard's results, reduced to plain picklable data."""

    index: int
    seed: int
    digest: str
    metrics: dict[str, MetricValue]
    summary: dict
    histograms: dict[str, HistogramState] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "digest": self.digest,
            "metrics": dict(self.metrics),
            "summary": dict(self.summary),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }


@dataclass(frozen=True)
class FleetRunResult:
    """A complete fleet run: per-shard results plus the merged view.

    ``completeness`` / ``supervisor`` are populated by the supervised
    runner: explicit coverage accounting (failed shard indices, attempts,
    reasons, resumed shards) and the supervision counters.  A run is only
    ``ok`` when every shard completed — a partial merge never pretends to
    be a full one.
    """

    spec: ScenarioSpec
    workers: int
    shards: tuple[ShardResult, ...]
    merged_metrics: dict[str, MetricValue]
    merged_histograms: dict[str, HistogramState]
    wall_s: float
    completeness: "Completeness | None" = None
    supervisor: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.completeness is None or self.completeness.ok

    @property
    def digests(self) -> tuple[str, ...]:
        """Per-shard digests in shard order (the replay fingerprint)."""
        return tuple(shard.digest for shard in self.shards)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "workers": self.workers,
            "shards": [shard.to_dict() for shard in self.shards],
            "digests": list(self.digests),
            "merged_metrics": dict(self.merged_metrics),
            "merged_histograms": {
                k: dict(v) for k, v in self.merged_histograms.items()
            },
            "wall_s": self.wall_s,
            "completeness": (
                self.completeness.to_dict() if self.completeness else None
            ),
            "supervisor": dict(self.supervisor),
        }

    def to_artifact(
        self, source: str = "flexsfp-run", findings: Iterable[Mapping] = ()
    ):
        """This run as a unified ``flexsfp.run/1`` artifact.

        The artifact (not this raw result dict) is what entry points
        emit and what :func:`repro.artifact.diff_artifacts` consumes;
        every scenario document is built here, so one root seed names
        one run whichever command made it.
        """
        # Only the parent builds the artifact: a spawned worker never loads
        # artifact.run.
        from ..artifact import artifact_from_fleet_result

        return artifact_from_fleet_result(self, source=source, findings=findings)


def shard_spec(spec: ScenarioSpec, index: int) -> ScenarioSpec:
    """The single-shard spec that shard ``index`` of ``spec`` executes."""
    seed = derive_shard_seed(spec.seed, index, label=SHARD_SEED_LABEL)
    return spec.with_shard(index, seed)


def run_shard(task: tuple[ScenarioSpec, int]) -> ShardResult:
    """Execute one shard and reduce it to a :class:`ShardResult`.

    Top-level (picklable) so it serves as the worker entry point for
    every ``multiprocessing`` start method.
    """
    spec, index = task
    single = shard_spec(spec, index)
    run = single.run()
    return ShardResult(
        index=index,
        seed=single.seed,
        digest=run.digest(),
        metrics=dict(run.metrics()),
        summary=dict(run.summary or {}),
        histograms=run.histograms(),
    )


def _pick_start_method(requested: str | None) -> str:
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ConfigError(
                f"start method {requested!r} unavailable on this platform; "
                f"available: {available}"
            )
        return requested
    return "fork" if "fork" in available else available[0]
