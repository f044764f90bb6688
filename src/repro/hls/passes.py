"""Optimization passes over the pipeline IR.

The HLS workflow (§4.2) does not just translate — it optimizes before
emitting HDL.  These passes transform a :class:`PipelineSpec` into a
cheaper equivalent; each is semantics-preserving at the IR level (they
reorder/merge *hardware structure*, not packet behaviour, which lives in
the application's ``process``):

* :func:`fuse_actions` — adjacent rewrite units share one field-mux tree.
* :func:`merge_checksum_units` — one RFC 1624 adder tree serves every
  rewrite in the pipeline; duplicates are dropped.
* :func:`eliminate_dead_stages` — zero-width rewrites, zero-entry
  counters, and empty parsers contribute nothing and are removed.
* :func:`coalesce_fifos` — consecutive FIFOs collapse into one buffer
  sized for the larger depth (store-and-forward needs one elastic point).

:func:`optimize` runs them to a fixed point and reports the saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ResourceError
from ..fpga.resources import ResourceVector
from .compiler import price_pipeline
from .ir import PipelineSpec, Stage, StageKind

PassFn = Callable[[list[Stage]], list[Stage]]

# The datapath width the before/after prices assume (the default shell's).
DATAPATH_BITS = 64


def fuse_actions(stages: list[Stage]) -> list[Stage]:
    """Merge runs of adjacent ACTION stages into one wider action unit."""
    out: list[Stage] = []
    for stage in stages:
        if (
            stage.kind is StageKind.ACTION
            and out
            and out[-1].kind is StageKind.ACTION
        ):
            previous = out.pop()
            out.append(
                Stage(
                    name=f"{previous.name}+{stage.name}",
                    kind=StageKind.ACTION,
                    params={
                        "rewrite_bits": previous.param("rewrite_bits")
                        + stage.param("rewrite_bits")
                    },
                )
            )
        else:
            out.append(stage)
    return out


def merge_checksum_units(stages: list[Stage]) -> list[Stage]:
    """Keep only the last CHECKSUM stage; one adder tree suffices."""
    checksum_indexes = [
        i for i, stage in enumerate(stages) if stage.kind is StageKind.CHECKSUM
    ]
    if len(checksum_indexes) <= 1:
        return list(stages)
    keep = checksum_indexes[-1]
    return [
        stage
        for i, stage in enumerate(stages)
        if stage.kind is not StageKind.CHECKSUM or i == keep
    ]


def eliminate_dead_stages(stages: list[Stage]) -> list[Stage]:
    """Drop stages whose parameters make them no-ops."""

    def is_dead(stage: Stage) -> bool:
        if stage.kind is StageKind.ACTION:
            return stage.param("rewrite_bits") == 0
        if stage.kind is StageKind.COUNTERS:
            return stage.param("counters") == 0
        if stage.kind is StageKind.METERS:
            return stage.param("meters") == 0
        return False

    return [stage for stage in stages if not is_dead(stage)]


def coalesce_fifos(stages: list[Stage]) -> list[Stage]:
    """Collapse adjacent FIFOs into the deeper of the two."""
    out: list[Stage] = []
    for stage in stages:
        if stage.kind is StageKind.FIFO and out and out[-1].kind is StageKind.FIFO:
            previous = out.pop()
            params = dict(previous.params)
            params["depth_bytes"] = max(
                previous.param("depth_bytes"), stage.param("depth_bytes")
            )
            params["metadata_bits"] = max(
                int(previous.params.get("metadata_bits", 0)),
                int(stage.params.get("metadata_bits", 0)),
            )
            out.append(
                Stage(
                    name=f"{previous.name}+{stage.name}",
                    kind=StageKind.FIFO,
                    params=params,
                )
            )
        else:
            out.append(stage)
    return out


ALL_PASSES: tuple[PassFn, ...] = (
    eliminate_dead_stages,
    fuse_actions,
    merge_checksum_units,
    coalesce_fifos,
)


@dataclass
class OptimizationReport:
    """What `optimize` changed and saved."""

    before_stages: int
    after_stages: int
    before_resources: ResourceVector
    after_resources: ResourceVector
    iterations: int

    @property
    def lut_saving(self) -> int:
        return self.before_resources.lut4 - self.after_resources.lut4


def optimize(spec: PipelineSpec) -> tuple[PipelineSpec, OptimizationReport]:
    """Run every pass to a fixed point; return the new spec + report."""
    try:
        before_total, _ = price_pipeline(spec, DATAPATH_BITS)
    except ResourceError:
        # Dead stages (e.g. a zero-counter bank) are unpriceable but cost
        # no hardware; price the live subset for the "before" figure.
        live = PipelineSpec(
            name=spec.name,
            stages=eliminate_dead_stages(list(spec.stages)),
            description=spec.description,
        )
        before_total, _ = price_pipeline(live, DATAPATH_BITS)
    stages = list(spec.stages)
    iterations = 0
    while True:
        iterations += 1
        new_stages = stages
        for pass_fn in ALL_PASSES:
            new_stages = pass_fn(new_stages)
        if new_stages == stages or iterations > 16:
            break
        stages = new_stages
    optimized = PipelineSpec(
        name=spec.name, stages=stages, description=spec.description
    )
    after_total, _ = price_pipeline(optimized, DATAPATH_BITS)
    report = OptimizationReport(
        before_stages=len(spec.stages),
        after_stages=len(stages),
        before_resources=before_total,
        after_resources=after_total,
        iterations=iterations,
    )
    return optimized, report
