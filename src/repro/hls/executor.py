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

from ..analysis.effects import (
    MODE_METER,
    EffectSummary,
    analyze_pipeline,
    fusion_engagement,
)
from ..core.shells import ShellSpec
from ..fpga.resources import MPF200T
from .compiler import _gate
from .ir import PipelineSpec


@dataclass
class CompiledProgram:
    """A verified, fused per-flow executor for one application.

    ``mode`` selects the burst lane the engine drives: ``"pure"`` replays
    one :class:`~repro.core.flowcache.FlowRecipe` per slice, ``"meter"``
    replays the application's sequential :meth:`burst_plan`, and ``None``
    deopts every burst to the exact per-frame lane.  ``fusible`` is the
    engine-facing boolean view of ``mode``.  ``summary`` is the effect
    analysis that proved (or refuted) fusion.
    """

    app_name: str
    mode: str | None
    summary: EffectSummary
    notes: list[str] = field(default_factory=list)

    @property
    def fusible(self) -> bool:
        return self.mode is not None


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
    runtime hook the proven lane needs (``flow_key`` for pure recipes,
    which the engine records from ``process``; ``burst_plan`` for the
    sequential meter lane).
    """
    app_name = getattr(app, "name", type(app).__name__)
    summary = analyze_pipeline(spec)
    mode = fusion_engagement(app, summary)
    notes: list[str] = []
    if mode == MODE_METER:
        notes.append(
            f"executor: {app_name!r} fuses through the sequential "
            "meter lane (analysis mode 'meter')"
        )
    elif mode is None and summary.fusible:
        notes.append(
            f"executor: {app_name!r} is proven "
            f"{summary.burst_mode}-fusible but implements no "
            "fusion hooks; compiled bursts deopt to the per-frame lane"
        )
    elif mode is None:
        notes.append(
            f"executor: {app_name!r} is unfusible ("
            + "; ".join(summary.blockers)
            + "); compiled bursts deopt to the per-frame lane"
        )
    return CompiledProgram(
        app_name=app_name,
        mode=mode,
        summary=summary,
        notes=notes,
    )
