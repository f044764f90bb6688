"""Property: the compile backend preserves the verifier's accepted set.

:func:`repro.hls.compile_executor` gates on the same static verifier the
bitstream flow uses, so for ANY pipeline IR the compiled tier's accepted
set must equal the verifier's: an application whose IR carries
error-severity findings raises :class:`~repro.errors.CompileError` from
the executor exactly when it raises from :func:`compile_app`, and an
accepted application always yields a :class:`CompiledProgram` whose
fusion mode is exactly what the effect analysis proves and the
application's runtime hooks engage — never a hand-written declaration;
the proof alone (``repro.hls.executor._prove``), which a slot runs on an
application it verified once already, yields the same program.
Hypothesis drives randomized stage lists (valid and broken alike)
through both gates and compares the outcomes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, check_app
from repro.analysis.effects import analyze_pipeline, fusion_engagement
from repro.core.ppe import PPEApplication, Verdict
from repro.core.shells import ShellSpec
from repro.errors import CompileError
from repro.hls import PipelineSpec, Stage, StageKind, compile_app, compile_executor
from repro.hls.executor import _prove

_COUNTER = st.integers(min_value=0, max_value=64)


def _middle_stage(index: int, kind: StageKind, a: int, b: int) -> Stage:
    name = f"s{index}"
    if kind is StageKind.EXACT_TABLE:
        # b spans past the datapath width, so some generated tables
        # legitimately fail the key-width rule — that is the point: the
        # strategy must produce rejected IR too.
        return Stage(
            name,
            kind,
            {"entries": max(a, 1) * 16, "key_bits": 8 + 4 * b, "value_bits": 32},
        )
    if kind is StageKind.ACTION:
        return Stage(name, kind, {"rewrite_bits": a})
    if kind is StageKind.CHECKSUM:
        return Stage(name, kind, {})
    if kind is StageKind.COUNTERS:
        # counters >= 1: a zero-wide bank trips the resource estimator
        # (ResourceError), which is a pricing failure, not a verifier
        # verdict — out of scope for the accepted-set property.
        return Stage(name, kind, {"counters": max(a, 1)})
    if kind is StageKind.METERS:
        return Stage(name, kind, {"meters": max(a, 1)})
    if kind is StageKind.TIMESTAMP:
        return Stage(name, kind, {})
    return Stage(name, StageKind.FIFO, {"depth_bytes": 256 * (1 + a)})


_MIDDLE_KINDS = st.sampled_from(
    [
        StageKind.EXACT_TABLE,
        StageKind.ACTION,
        StageKind.CHECKSUM,
        StageKind.COUNTERS,
        StageKind.METERS,
        StageKind.TIMESTAMP,
        StageKind.FIFO,
    ]
)


@st.composite
def generated_apps(draw):
    """A synthetic application around a random (possibly invalid) pipeline.

    ``drop_parser`` / ``drop_deparser`` deliberately break the structure
    rule on a fraction of examples so the rejected side of the property
    is exercised, not just the happy path.  ``with_flow_key`` draws the
    runtime hook, so every combination of (analysis verdict × implemented
    hook) shows up.
    """
    middles = draw(
        st.lists(st.tuples(_MIDDLE_KINDS, _COUNTER, _COUNTER), max_size=6)
    )
    drop_parser = draw(st.booleans()) and draw(st.booleans())
    drop_deparser = draw(st.booleans()) and draw(st.booleans())
    stages = []
    if not drop_parser:
        stages.append(Stage("parse", StageKind.PARSER, {"header_bytes": 34}))
    stages += [
        _middle_stage(i, kind, a, b) for i, (kind, a, b) in enumerate(middles)
    ]
    if not drop_deparser:
        stages.append(Stage("deparse", StageKind.DEPARSER, {"header_bytes": 34}))
    if not stages:
        stages = [Stage("parse", StageKind.PARSER, {"header_bytes": 34})]
    with_flow_key = draw(st.booleans())

    class GeneratedApp(PPEApplication):
        name = "generated"

        def pipeline_spec(self) -> PipelineSpec:
            return PipelineSpec(name="generated", stages=list(stages))

        def process(self, packet, ctx) -> Verdict:
            return Verdict.PASS

    if with_flow_key:

        def flow_key(self, packet):
            return 0

        GeneratedApp.flow_key = flow_key
    return GeneratedApp()


@settings(max_examples=60, deadline=None)
@given(generated_apps())
def test_compile_executor_accepts_exactly_the_verified_set(app):
    shell = ShellSpec()
    findings = check_app(app, shell=shell)
    verifier_rejects = any(f.severity is Severity.ERROR for f in findings)

    try:
        compile_app(app, shell)
        bitstream_rejects = False
    except CompileError:
        bitstream_rejects = True
    try:
        program = compile_executor(app, shell)
        executor_rejects = False
    except CompileError:
        executor_rejects = True
        program = None

    assert executor_rejects == verifier_rejects, [f.render() for f in findings]
    assert executor_rejects == bitstream_rejects
    if program is not None:
        summary = analyze_pipeline(app.pipeline_spec())
        # Fusion is the analysis verdict engaged by the implemented
        # hook; no declaration can widen (or narrow) it.
        assert program.fusible == (fusion_engagement(app, summary) is not None)
        assert program.summary.digest() == summary.digest()
        if not program.fusible:
            assert any("deopt" in note for note in program.notes)
        # A slot that verified its app once skips the gate: the proof
        # alone yields the same program.
        proof = _prove(app, app.pipeline_spec())
        assert (proof.fusible, proof.notes) == (program.fusible, program.notes)
        assert proof.summary.digest() == summary.digest()


def test_rejected_app_never_yields_a_program():
    """A structurally invalid pipeline raises before any recipe exists."""

    class Broken(PPEApplication):
        name = "broken"

        def pipeline_spec(self) -> PipelineSpec:
            return PipelineSpec(
                name="broken",
                stages=[Stage("act", StageKind.ACTION, {"rewrite_bits": 32})],
            )

        def process(self, packet, ctx) -> Verdict:
            return Verdict.PASS

    with pytest.raises(CompileError):
        compile_executor(Broken(), ShellSpec())
