"""The scenario matrix: sweep spec axes, diff every cell vs a baseline.

A matrix run is the one-command differential oracle: take a base
:class:`~repro.obs.scenario.ScenarioSpec`, expand it across
engine × shards × workers × device × fault-plan axes, run
each cell through the supervised sharded runner, reduce each cell to a
``flexsfp.run/1`` artifact, and cross-diff every cell against the
designated baseline cell with :func:`repro.artifact.diff_artifacts`.
"Does the compiled engine compute what the reference engine computes, at
every shard count" stops being a test file and becomes
``flexsfp matrix --engines reference,compiled --shards 1,4``.

Shard-count cells share their shard prefix (shard ``i`` always runs
under the same derived seed), so the diff engine compares per-shard
semantic digests across cells with different shard counts instead of
apples-to-oranges merged aggregates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator

from ..artifact import ArtifactDiff, RunArtifact, diff_artifacts
from ..engine import validate_engine
from ..errors import ConfigError
from ..obs.export import SCHEMA_MATRIX, json_document
from ..obs.scenario import ScenarioSpec
from ..parallel.supervisor import run_sharded


@dataclass(frozen=True)
class MatrixAxes:
    """The swept knobs.  Every axis defaults to "just the base spec".

    ``devices`` / ``fault_plans`` accept ``None`` entries meaning "keep
    whatever the base spec says" — the identity element every axis
    needs so a 1-long axis never perturbs the spec.
    """

    engines: tuple[str, ...] = ("reference",)
    shards: tuple[int, ...] = (1,)
    workers: tuple[int, ...] = (1,)
    devices: tuple[str | None, ...] = (None,)
    fault_plans: tuple[str | None, ...] = (None,)

    def validate(self) -> None:
        for axis, values in (
            ("engines", self.engines),
            ("shards", self.shards),
            ("workers", self.workers),
            ("devices", self.devices),
            ("fault_plans", self.fault_plans),
        ):
            if not values:
                raise ConfigError(f"matrix axis {axis!r} must be non-empty")
        for engine in self.engines:
            validate_engine(engine)
        for count in self.shards:
            if count < 1:
                raise ConfigError(f"shards axis values must be >= 1: {count}")
        for count in self.workers:
            if count < 1:
                raise ConfigError(f"workers axis values must be >= 1: {count}")

    def size(self) -> int:
        return (
            len(self.engines)
            * len(self.shards)
            * len(self.workers)
            * len(self.devices)
            * len(self.fault_plans)
        )

    def cells(self) -> Iterator["CellConfig"]:
        """Every cell in deterministic axis-major order.

        The first yielded cell is the default baseline, so axis ordering
        is part of the contract: engines vary slowest, fault plans
        fastest.
        """
        self.validate()
        for engine, shards, workers, device, plan in itertools.product(
            self.engines,
            self.shards,
            self.workers,
            self.devices,
            self.fault_plans,
        ):
            yield CellConfig(
                engine=engine,
                shards=shards,
                workers=workers,
                device=device,
                fault_plan=plan,
            )


@dataclass(frozen=True)
class CellConfig:
    """One matrix cell's knob assignment."""

    engine: str
    shards: int
    workers: int
    device: str | None
    fault_plan: str | None

    @property
    def label(self) -> str:
        parts = [
            f"engine={self.engine}",
            f"shards={self.shards}",
            f"workers={self.workers}",
        ]
        if self.device is not None:
            parts.append(f"device={self.device}")
        if self.fault_plan is not None:
            parts.append(f"faults={self.fault_plan}")
        return ",".join(parts)

    def apply(self, base: ScenarioSpec) -> ScenarioSpec:
        """The cell's concrete spec: base spec with this cell's knobs."""
        changes: dict[str, object] = {
            "engine": self.engine,
            "shards": self.shards,
        }
        if self.device is not None:
            changes["device"] = self.device
        if self.fault_plan is not None:
            changes["fault_plan"] = self.fault_plan
        return replace(base, **changes)

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "shards": self.shards,
            "workers": self.workers,
            "device": self.device,
            "fault_plan": self.fault_plan,
            "label": self.label,
        }


@dataclass(frozen=True)
class MatrixCell:
    """One executed cell: its config, artifact, and diff vs baseline."""

    config: CellConfig
    artifact: RunArtifact
    diff: ArtifactDiff | None  # None only for the baseline cell

    @property
    def is_baseline(self) -> bool:
        return self.diff is None

    @property
    def diverged(self) -> bool:
        return self.diff is not None and self.diff.diverged

    @property
    def verdict(self) -> str:
        return "baseline" if self.diff is None else self.diff.verdict

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "artifact": self.artifact.to_dict(),
            "diff": None if self.diff is None else self.diff.to_dict(),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class MatrixResult:
    """A full matrix run, ready to render or persist as one document."""

    base_spec: dict
    baseline: str
    cells: tuple[MatrixCell, ...]

    @property
    def diverged(self) -> bool:
        return any(cell.diverged for cell in self.cells)

    @property
    def ok(self) -> bool:
        """Every cell complete (no shard losses anywhere in the grid)."""
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

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_MATRIX,
            "base_spec": dict(self.base_spec),
            "baseline": self.baseline,
            "verdict": self.verdict,
            "counts": self.counts(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def document(self) -> str:
        """The canonical one-line ``flexsfp.matrix/1`` JSON document."""
        payload = self.to_dict()
        payload.pop("schema")
        return json_document(SCHEMA_MATRIX, **payload)

    def rows(self) -> list[tuple]:
        """(label, verdict, semantic, timing-only, ok) per cell — the
        CLI table body."""
        rows = []
        for cell in self.cells:
            semantic = (
                0 if cell.diff is None else len(cell.diff.semantic_entries)
            )
            timing = (
                0
                if cell.diff is None
                else len(cell.diff.entries) - semantic
            )
            rows.append(
                (
                    cell.config.label,
                    cell.verdict,
                    semantic,
                    timing,
                    "yes" if cell.artifact.ok else "NO",
                )
            )
        return rows


def run_matrix(
    spec: ScenarioSpec,
    axes: MatrixAxes,
    baseline: int = 0,
    start_method: str | None = None,
    progress=None,
) -> MatrixResult:
    """Execute every cell of ``axes`` over ``spec`` and diff vs baseline.

    The base spec is resolved once in the parent — every cell then
    overrides exactly the swept knobs, so un-swept knobs (traffic, app,
    seed) are pinned identically across the grid.  ``baseline`` indexes
    into the deterministic cell order (default: first cell).
    ``progress`` is an optional ``callable(label)`` invoked before each
    cell runs (the CLI's live narration hook).
    """
    configs = list(axes.cells())
    if not 0 <= baseline < len(configs):
        raise ConfigError(
            f"baseline index {baseline} out of range for {len(configs)} cells"
        )
    resolved = spec.resolved()
    artifacts: list[RunArtifact] = []
    for config in configs:
        if progress is not None:
            progress(config.label)
        cell_spec = config.apply(resolved)
        result = run_sharded(
            cell_spec, workers=config.workers, start_method=start_method
        )
        artifacts.append(
            result.to_artifact(source=f"matrix:{config.label}")
        )
    base_artifact = artifacts[baseline]
    cells = tuple(
        MatrixCell(
            config=config,
            artifact=artifact,
            diff=(
                None
                if index == baseline
                else diff_artifacts(base_artifact, artifact)
            ),
        )
        for index, (config, artifact) in enumerate(zip(configs, artifacts))
    )
    return MatrixResult(
        base_spec=resolved.to_dict(),
        baseline=configs[baseline].label,
        cells=cells,
    )


def parse_axis_values(raw: str, axis: str) -> tuple[str, ...]:
    """Split a comma-separated CLI axis value, rejecting empties."""
    values = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not values:
        raise ConfigError(f"matrix axis {axis!r} has no values: {raw!r}")
    return values


def parse_int_axis(raw: str, axis: str) -> tuple[int, ...]:
    """Parse a comma-separated integer axis like ``1,4``."""
    values = []
    for token in parse_axis_values(raw, axis):
        try:
            values.append(int(token))
        except ValueError:
            raise ConfigError(
                f"matrix axis {axis!r}: expected integers, got {token!r}"
            ) from None
    return tuple(values)


def parse_optional_axis(
    raw: str, axis: str
) -> tuple[str | None, ...]:
    """Parse an axis whose ``none`` token means "keep the base spec"."""
    return tuple(
        None if token.lower() == "none" else token
        for token in parse_axis_values(raw, axis)
    )
