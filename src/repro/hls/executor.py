"""Compile backend: lower verified pipeline IR into fused per-flow executors.

The reference engine tier interprets an application per frame.
The *compiled* tier instead asks this backend for a
:class:`CompiledProgram`: a precomputed description of the application's
per-flow mutation recipes that the
:class:`~repro.core.ppe.PacketProcessingEngine` burst lane uses to process
whole same-flow bursts with a handful of Python-level operations.

The gate is the same static verifier the bitstream flow uses —
:func:`compile_executor` delegates to :func:`repro.hls.compiler.compile_app`,
so a program only ever exists for IR the :mod:`repro.analysis` verifier
accepted; error findings raise :class:`~repro.errors.CompileError` before
any recipe could run.  Whether bursts may *fuse* is decided by the effect
analysis (:func:`repro.analysis.effects.analyze_pipeline`) — a dataflow
proof over the IR, not a hand-written declaration — and the fused
datapath is priced with the same synthesis cost model as every other
stage (:func:`repro.fpga.estimator.fused_executor`), sized by the
analysis-derived key/rewrite widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from ..analysis.effects import (
    MODE_METER,
    EffectSummary,
    analyze_pipeline,
    fusion_engagement,
    profile_findings,
)
from ..core.flowcache import DEFAULT_FLOW_CACHE_ENTRIES
from ..core.shells import ShellSpec
from ..errors import CompileError
from ..fpga.estimator import fused_executor
from ..fpga.resources import FPGADevice, MPF200T, ResourceVector
from .compiler import BuildResult, compile_app


@dataclass
class CompiledProgram:
    """A verified, fused per-flow executor for one application.

    ``mode`` selects the burst lane the engine drives: ``"pure"`` replays
    one :class:`~repro.core.flowcache.FlowRecipe` per slice, ``"meter"``
    replays the application's sequential :meth:`burst_plan`, and ``None``
    deopts every burst to the exact per-frame lane.  ``fusible`` is the
    engine-facing boolean view of ``mode``.  ``summary`` is the effect
    analysis that proved (or refuted) fusion; its digest feeds the
    ``flexsfp.run/1`` knob block so artifact diffs catch analysis drift.
    ``compile_wall_s`` is the real (wall-clock) time the lowering took —
    observability data only, never simulated state, and deliberately kept
    out of the metric namespace so golden artifacts stay byte-identical
    across regenerations.
    """

    app_name: str
    mode: str | None
    key_bits: int
    rewrite_bits: int
    flow_cache_entries: int
    resources: ResourceVector
    compile_wall_s: float
    summary: EffectSummary | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def fusible(self) -> bool:
        return self.mode is not None

    @property
    def effect_digest(self) -> str:
        return self.summary.digest() if self.summary is not None else ""


@dataclass
class ExecutorBuild:
    """:func:`compile_executor`'s result: the program plus the shell build."""

    program: CompiledProgram
    build: BuildResult


def compile_executor(
    app,
    shell: ShellSpec,
    device: FPGADevice = MPF200T,
    clock_hz: float | None = None,
    flow_cache_entries: int = DEFAULT_FLOW_CACHE_ENTRIES,
    strict: bool = True,
    verify: bool = True,
) -> ExecutorBuild:
    """Lower ``app`` into a fused per-flow executor for the compiled tier.

    Runs the full verified build first (:func:`compile_app` — IR verifier
    plus the AST analyzer), so the compiled tier's accepted set is exactly
    the verifier's accepted set: any application that raises here raises
    identically from the bitstream flow, and vice versa.  Burst fusion is
    then gated by the effect analysis: the derived
    :class:`~repro.analysis.effects.EffectSummary` must prove the
    program's effects burst-safe *and* the application must implement the
    runtime hooks the proven lane needs (``flow_key``/``decide`` for pure
    recipes, ``burst_plan`` for the sequential meter lane).  A surviving
    hand-written ``compiled_profile`` that disagrees with the derived
    summary is an error-severity finding (raised under ``strict``).
    """
    start = perf_counter()  # flexsfp: allow(det-wallclock)
    result = compile_app(
        app,
        shell,
        device=device,
        clock_hz=clock_hz,
        strict=strict,
        flow_cache_entries=flow_cache_entries,
        verify=verify,
    )
    summary = analyze_pipeline(app.pipeline_spec())
    notes: list[str] = []
    if not verify:
        # compile_app's check_app pass (which includes the profile
        # cross-check) was skipped; the fusion gate still must not trust
        # a stale declaration.
        stale = profile_findings(app, summary)
        if stale:
            if strict:
                raise CompileError(
                    "executor fusion gate: "
                    + "; ".join(f.render() for f in stale)
                )
            notes.extend(f.render() for f in stale)
    mode = fusion_engagement(app, summary)
    app_name = getattr(app, "name", type(app).__name__)
    if mode is not None:
        resources = fused_executor(
            flow_cache_entries,
            key_bits=summary.key_bits,
            rewrite_bits=summary.rewrite_bits,
        )
        report = result.report
        report.components["fused executor"] = resources
        report.total = report.total + resources
        report.fits = device.fits(report.total)
        if not report.fits:
            notes.append(
                "fused executor overflows the device: "
                + "; ".join(device.overflow_report(report.total))
            )
        if mode == MODE_METER:
            notes.append(
                f"executor: {app_name!r} fuses through the sequential "
                "meter lane (analysis mode 'meter')"
            )
        report.notes.extend(notes)
    else:
        resources = ResourceVector()
        if summary.fusible:
            notes.append(
                f"executor: {app_name!r} is proven "
                f"{summary.burst_mode}-fusible but implements no "
                "fusion hooks; compiled bursts deopt to the per-frame lane"
            )
        else:
            notes.append(
                f"executor: {app_name!r} is unfusible ("
                + "; ".join(summary.blockers)
                + "); compiled bursts deopt to the per-frame lane"
            )
    wall = perf_counter() - start  # flexsfp: allow(det-wallclock)
    program = CompiledProgram(
        app_name=app_name,
        mode=mode,
        key_bits=summary.key_bits,
        rewrite_bits=summary.rewrite_bits,
        flow_cache_entries=flow_cache_entries,
        resources=resources,
        compile_wall_s=wall,
        summary=summary,
        notes=notes,
    )
    return ExecutorBuild(program=program, build=result)
