"""Compile backend: lower verified pipeline IR into fused per-flow executors.

The reference engine tier interprets an application per frame.
The *compiled* tier also asks this backend for a
:class:`CompiledProgram`: a precomputed description of the application's
per-flow mutation recipes that the
:class:`~repro.core.ppe.PacketProcessingEngine` burst lane uses to process
whole same-flow bursts with a handful of Python-level operations.

A program only ever exists for IR the :mod:`repro.analysis` verifier
accepted, and it is proven over the pipeline that check verified:
:func:`compile_executor` is the gate plus the proof, and a module runs
the proof alone (:func:`_prove`) on an application its slot verified
once, when the application started running.  Whether bursts may
*fuse* is decided by the effect analysis — a dataflow proof over the IR,
not a hand-written declaration.  A program is not an image: it changes
how the simulator runs the hardware
:func:`~repro.hls.compiler.compile_app` priced, so it synthesizes and
prices nothing, and both tiers boot the same bitstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.effects import EffectSummary, analyze_pipeline, fusion_engagement
from ..core.shells import ShellSpec
from ..fpga.resources import MPF200T
from .compiler import _gate
from .ir import PipelineSpec


@dataclass
class CompiledProgram:
    """A verified, fused per-flow executor for one application.

    ``fusible`` says whether the engine's burst lane replays one
    :class:`~repro.core.flowcache.FlowRecipe` per slice; when False every
    burst deopts to the exact per-frame lane.  ``summary`` is the effect
    analysis that proved (or refuted) fusion.
    """

    app_name: str
    fusible: bool
    summary: EffectSummary
    notes: list[str] = field(default_factory=list)


def compile_executor(app, shell: ShellSpec) -> CompiledProgram:
    """The fused executor of ``app``, behind the strict verifier gate
    :func:`~repro.hls.compiler.compile_app` runs on the prototype's
    MPF200T: any application that raises here raises identically from the
    bitstream flow, and vice versa.
    """
    spec = app.pipeline_spec()
    _gate(app, spec, shell, MPF200T)
    return _prove(app, spec)


def _prove(app, spec: PipelineSpec) -> CompiledProgram:
    """The fused executor of an ``app`` the verifier accepted, over
    ``spec``, the pipeline it was verified with.

    Burst fusion is gated by the effect analysis: the derived
    :class:`~repro.analysis.effects.EffectSummary` must prove the
    program's effects burst-safe *and* the application must implement the
    runtime hook the recipe lane needs, ``flow_key`` (the recipe itself the
    engine records from ``process``).
    """
    app_name = getattr(app, "name", type(app).__name__)
    summary = analyze_pipeline(spec)
    fusible = fusion_engagement(app, summary) is not None
    notes: list[str] = []
    if not fusible:
        reason = (
            f"is proven {summary.burst_mode}-fusible but implements no fusion hooks"
            if summary.fusible
            else "is unfusible (" + "; ".join(summary.blockers) + ")"
        )
        notes.append(
            f"executor: {app_name!r} {reason}; compiled bursts deopt to the "
            "per-frame lane"
        )
    return CompiledProgram(
        app_name=app_name,
        fusible=fusible,
        summary=summary,
        notes=notes,
    )
