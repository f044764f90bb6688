"""The tier sweep: one declared cell list, run on both tiers and checked.

The reproduction's central claim is that both engine tiers compute the
same result.  :func:`declared` is the one list of runs that checks it:
every scenario kind at root seed 1, ``chaos`` at six more root seeds,
every named fault plan but ``smoke`` at seed 1, ``nat-linerate`` at seed
11 with one and four shards, and ``nfv-chain`` / ``tenant-churn`` at
seed 3.  A sweep runs its cells (one per tier and shard count) through
the supervised sharded runner, reduces each to a ``flexsfp.run/1``
artifact and diffs it against the sweep's first cell (reference tier,
one shard) with :func:`repro.artifact.diff_artifacts`.

A cell's seed is the *root* seed, as ``flexsfp run --seed`` means it:
shard ``i`` runs under the seed derived from (root, ``i``), so cells
with different shard counts share their shard prefix and the diff
compares per-shard semantic digests across them instead of merged
aggregates of different fleet sizes.

A sweep's record (:meth:`MatrixResult.record`) is one semantic digest per
cell; the checked-in ``tests/snapshots/registry_semantic.json`` is that
record, and :func:`compare` checks a run against it or against an
earlier run's document, cell by cell.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .._util import typed
from ..artifact import ArtifactDiff, RunArtifact, diff_artifacts
from ..engine import ENGINES, validate_engine
from ..errors import ConfigError
from ..faults.plan import NAMED_PLANS
from ..obs.export import SCHEMA_MATRIX
from ..obs.scenario import SCENARIO_KINDS, ScenarioSpec
from ..parallel.supervisor import run_sharded

#: Root seeds of the default-plan chaos sweep.  Root 21 is the one whose
#: shard reboots the module again inside the first reboot's dark window.
CHAOS_SEEDS = (1, 2, 3, 5, 7, 11, 21)


@dataclass(frozen=True)
class MatrixAxes:
    """The tiers and shard counts one sweep crosses."""

    engines: tuple[str, ...] = ENGINES
    shards: tuple[int, ...] = (1,)

    def validate(self) -> None:
        if not self.engines or not self.shards:
            raise ConfigError("matrix axes must be non-empty")
        for engine in self.engines:
            validate_engine(engine)
        for count in self.shards:
            if count < 1:
                raise ConfigError(f"shards axis values must be >= 1: {count}")

    def cells(self) -> Iterator["CellConfig"]:
        """Every cell, engines slowest: the first one is the baseline."""
        self.validate()
        for engine, shards in itertools.product(self.engines, self.shards):
            yield CellConfig(engine=engine, shards=shards)


@dataclass(frozen=True)
class CellConfig:
    """One cell's tier and shard count."""

    engine: str
    shards: int

    def apply(self, base: ScenarioSpec) -> ScenarioSpec:
        """The cell's concrete spec: ``base`` run on this tier and fleet."""
        return replace(base, engine=self.engine, shards=self.shards)

    def label(self, base: ScenarioSpec) -> str:
        """``<kind>[:<plan>]/<engine>/<root seed>[/shards=<n>]``."""
        kind = base.kind if base.fault_plan is None else f"{base.kind}:{base.fault_plan}"
        label = f"{kind}/{self.engine}/{base.seed}"
        return label if self.shards == 1 else f"{label}/shards={self.shards}"

    def to_dict(self) -> dict:
        return {"engine": self.engine, "shards": self.shards}


@dataclass(frozen=True)
class MatrixCell:
    """One executed cell: its label, config, artifact, and diff vs baseline."""

    label: str
    config: CellConfig
    artifact: RunArtifact
    baseline: str
    diff: ArtifactDiff | None  # None only for the baseline cell

    @property
    def diverged(self) -> bool:
        return self.diff is not None and self.diff.diverged

    @property
    def verdict(self) -> str:
        return "baseline" if self.diff is None else self.diff.verdict

    @property
    def digest(self) -> str:
        """The cell's record entry: its shard's semantic digest (a hash of
        every shard's, in index order, past one shard)."""
        digests = [str(shard["semantic_digest"]) for shard in self.artifact.shards]
        if len(digests) == 1:
            return digests[0]
        return hashlib.sha256("\n".join(digests).encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "config": self.config.to_dict(),
            "baseline": self.baseline,
            "artifact": self.artifact.to_dict(),
            "diff": None if self.diff is None else self.diff.to_dict(),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class MatrixResult:
    """Executed cells, ready to render, record or persist as one document."""

    cells: tuple[MatrixCell, ...]

    @property
    def diverged(self) -> bool:
        return any(cell.diverged for cell in self.cells)

    @property
    def ok(self) -> bool:
        """Every cell complete (no shard losses anywhere in the sweep)."""
        return all(cell.artifact.ok for cell in self.cells)

    @property
    def diverged_cells(self) -> tuple[MatrixCell, ...]:
        return tuple(cell for cell in self.cells if cell.diverged)

    @property
    def verdict(self) -> str:
        if self.diverged:
            return "diverged"
        if not self.ok:
            return "partial"
        return "clean"

    def counts(self) -> dict:
        return {
            "cells": len(self.cells),
            "diverged": len(self.diverged_cells),
            "partial": sum(1 for cell in self.cells if not cell.artifact.ok),
        }

    def record(self) -> dict[str, str]:
        """``{cell label: semantic digest}``: what the checked-in record holds."""
        return {cell.label: cell.digest for cell in self.cells}

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_MATRIX,
            "verdict": self.verdict,
            "counts": self.counts(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def document(self) -> str:
        """The canonical one-line ``flexsfp.matrix/1`` JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    def rows(self) -> list[tuple]:
        """(label, verdict, semantic, timing-only, complete) per cell."""
        rows = []
        for cell in self.cells:
            entries = () if cell.diff is None else cell.diff.entries
            semantic = sum(entry.semantic for entry in entries)
            complete = "yes" if cell.artifact.ok else "NO"
            rows.append((cell.label, cell.verdict, semantic, len(entries) - semantic, complete))
        return rows


def declared() -> tuple[tuple[ScenarioSpec, MatrixAxes], ...]:
    """Every declared sweep: a base spec and the cells it runs."""
    both = MatrixAxes()
    sweeps = [
        (ScenarioSpec(kind=kind, seed=seed), both)
        for kind in sorted(SCENARIO_KINDS)
        for seed in (CHAOS_SEEDS if kind == "chaos" else (1,))
    ]
    sweeps += [
        (ScenarioSpec(kind="chaos", fault_plan=plan, seed=1), both)
        for plan in sorted(NAMED_PLANS)
        if plan != "smoke"
    ]
    # Every kind but chaos repeats its seed-1 digest at any root seed
    # (tests/test_matrix.py); the shard axis is one 4-shard fleet.
    sweeps.append((ScenarioSpec(kind="nat-linerate", seed=11), MatrixAxes(shards=(4,))))
    return tuple(sweeps)


def _declared_of(kind: str | None) -> list[tuple[ScenarioSpec, MatrixAxes]]:
    if kind is not None and kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"unknown scenario {kind!r}; available: {sorted(SCENARIO_KINDS)}"
        )
    return [(spec, axes) for spec, axes in declared() if kind in (None, spec.kind)]


def labels(kind: str | None = None) -> list[str]:
    """Every declared cell's label (of one kind's sweeps, given ``kind``)."""
    return [
        config.label(spec)
        for spec, axes in _declared_of(kind)
        for config in axes.cells()
    ]


def run_matrix(
    spec: ScenarioSpec,
    axes: MatrixAxes,
    progress: Callable[[str], None] | None = None,
) -> MatrixResult:
    """Execute every cell of ``axes`` over ``spec`` and diff vs the first.

    The base spec is resolved once in the parent, so every cell overrides
    exactly its tier and shard count.  ``progress`` is an optional
    ``callable(label)`` invoked before each cell runs.
    """
    resolved = spec.resolved()
    cells: list[MatrixCell] = []
    for config in axes.cells():
        label = config.label(spec)
        if progress is not None:
            progress(label)
        artifact = run_sharded(config.apply(resolved)).to_artifact(
            source=f"matrix:{label}"
        )
        base = cells[0] if cells else None
        cells.append(
            MatrixCell(
                label=label,
                config=config,
                artifact=artifact,
                baseline=label if base is None else base.label,
                diff=None if base is None else diff_artifacts(base.artifact, artifact),
            )
        )
    return MatrixResult(cells=tuple(cells))


def run_declared(
    kind: str | None = None, progress: Callable[[str], None] | None = None
) -> MatrixResult:
    """Run every declared sweep (only ``kind``'s, given one) as one result."""
    cells: tuple[MatrixCell, ...] = ()
    for spec, axes in _declared_of(kind):
        cells += run_matrix(spec, axes, progress).cells
    return MatrixResult(cells=cells)


def load_against(path: str | Path) -> dict[str, str] | dict[str, RunArtifact]:
    """Read what ``--against`` names, fail-closed.

    A record (``{label: digest}``, no ``schema``) comes back as is; a
    ``flexsfp.matrix/1`` document as ``{label: its cell's artifact}``.
    Anything else is a :class:`ConfigError` naming the file.
    """
    target = Path(path)
    try:
        payload = json.loads(target.read_text())
    except OSError as exc:
        raise ConfigError(f"{target}: cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{target} is not valid JSON: {exc}") from None
    typed(payload, dict, f"{target}")
    if "schema" not in payload:
        for label, digest in payload.items():
            typed(digest, str, f"{target}: record entry {label!r}")
        return payload
    if payload["schema"] != SCHEMA_MATRIX:
        raise ConfigError(
            f"{target}: expected a record or a {SCHEMA_MATRIX!r} document, "
            f"got schema {payload['schema']!r}"
        )
    artifacts = {}
    for index, cell in enumerate(typed(payload.get("cells"), list, f"{target}: cells")):
        where = f"{target}: cells[{index}]"
        typed(cell, dict, where)
        label = typed(cell.get("label"), str, f"{where}.label")
        try:
            artifacts[label] = RunArtifact.from_dict(
                typed(cell.get("artifact"), dict, f"{where}.artifact")
            )
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return artifacts


def compare(
    result: MatrixResult, against: Mapping[str, str | RunArtifact]
) -> tuple[list[str], list[str]]:
    """Each run cell against the cell of the same label in ``against``.

    Returns the lines to print and the labels that diverged.  Against a
    record a cell diverges when its digest differs; against a document,
    when :func:`diff_artifacts` finds a semantic entry (every entry is
    printed, timing-only ones too).  A run cell the file lacks, and a
    label the file holds that is not declared at all, diverge as well; a
    declared cell this run did not take (another kind's) is skipped.
    """
    lines: list[str] = []
    diverged: list[str] = []
    for label in sorted(against.keys() - set(labels())):
        lines.append(f"{label}: not a declared cell")
        diverged.append(label)
    for cell in result.cells:
        expected = against.get(cell.label)
        if expected is None:
            lines.append(f"{cell.label}: missing from the file")
            diverged.append(cell.label)
        elif isinstance(expected, str):
            if expected != cell.digest:
                lines.append(f"{cell.label}: {expected} != {cell.digest}")
                diverged.append(cell.label)
        else:
            diff = diff_artifacts(expected, cell.artifact)
            lines += [
                f"{cell.label}: {entry.kind.value} {entry.name}: {entry.a!r} != {entry.b!r}"
                for entry in diff.entries
            ]
            lines += [f"{cell.label}: note: {note}" for note in diff.notes]
            if diff.diverged:
                diverged.append(cell.label)
    return lines, diverged
