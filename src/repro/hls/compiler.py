"""The FlexSFP build flow: pipeline IR → resource/timing report → bitstream.

This mirrors §4.2's workflow: "the developer writes the packet function …
an HLS toolchain converts it to HDL and generates an IP core.  The build
framework integrates this into an architecture shell, finalizes clocks,
memory, and IO, and emits the SFP bitstream."  Here, "synthesis" is the
calibrated cost model in :mod:`repro.fpga.estimator`, "timing closure" is
the clock/width arithmetic in :mod:`repro.fpga.timing`, and the output is a
:class:`~repro.fpga.bitstream.Bitstream` the flash/management stack can
store, authenticate, and boot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.findings import Severity
from ..core.shells import ShellSpec
from ..errors import CompileError
from ..fpga import estimator
from ..fpga.bitstream import Bitstream, synthesize_payload
from ..fpga.resources import FPGADevice, MPF200T, ResourceVector
from ..fpga.timing import TimingSpec
from .ir import PipelineSpec, Stage, StageKind


@dataclass
class SynthesisReport:
    """Everything the build flow learned about a design."""

    app_name: str
    shell: ShellSpec
    device: FPGADevice
    timing: TimingSpec
    components: dict[str, ResourceVector]
    app_resources: ResourceVector
    total: ResourceVector
    fits: bool
    meets_timing: bool
    worst_case_frame: int
    notes: list[str] = field(default_factory=list)

    @property
    def utilization(self) -> dict[str, float]:
        return self.device.utilization(self.total)

    def table1_rows(self) -> list[tuple[str, int, int, int, int]]:
        """Rows in the paper's Table 1 format: (name, 4LUT, FF, uSRAM, LSRAM)."""
        rows = [
            (name, vec.lut4, vec.ff, vec.usram, vec.lsram)
            for name, vec in self.components.items()
        ]
        rows.append(
            ("Used", self.total.lut4, self.total.ff, self.total.usram, self.total.lsram)
        )
        rows.append(
            (
                "Avail.",
                self.device.lut4,
                self.device.ff,
                self.device.usram,
                self.device.lsram,
            )
        )
        return rows

    def summary(self) -> dict[str, object]:
        return {
            "app": self.app_name,
            "shell": self.shell.kind.value,
            "device": self.device.name,
            "clock_mhz": self.timing.clock_hz / 1e6,
            "datapath_bits": self.timing.datapath_bits,
            "fits": self.fits,
            "meets_timing": self.meets_timing,
            "utilization": {k: round(v, 4) for k, v in self.utilization.items()},
        }


@dataclass
class BuildResult:
    """A successful build: the report plus the deployable artifact, and
    the pipeline both were built from (verified, when the build was)."""

    report: SynthesisReport
    bitstream: Bitstream
    spec: PipelineSpec


def price_stage(stage: Stage, datapath_bits: int) -> ResourceVector:
    """Price one IR stage with the synthesis cost model."""
    params = stage.params
    kind = stage.kind
    if kind is StageKind.PARSER:
        return estimator.parser(stage.param("header_bytes"), datapath_bits)
    if kind is StageKind.DEPARSER:
        return estimator.deparser(stage.param("header_bytes"), datapath_bits)
    if kind is StageKind.EXACT_TABLE:
        return estimator.exact_match_table(
            stage.param("entries"),
            stage.param("key_bits"),
            stage.param("value_bits"),
            datapath_bits,
        )
    if kind is StageKind.LPM_TABLE:
        return estimator.lpm_table(
            stage.param("entries"), stage.param("key_bits"), stage.param("value_bits")
        )
    if kind is StageKind.TERNARY_TABLE:
        return estimator.ternary_table(
            stage.param("entries"), stage.param("key_bits"), stage.param("value_bits")
        )
    if kind is StageKind.ACTION:
        return estimator.action_unit(stage.param("rewrite_bits"), datapath_bits)
    if kind is StageKind.CHECKSUM:
        return estimator.checksum_update_unit()
    if kind is StageKind.HASH:
        return estimator.crc_hash(stage.param("key_bits"))
    if kind is StageKind.FIFO:
        return estimator.frame_fifo(
            stage.param("depth_bytes"),
            metadata_bits=int(params.get("metadata_bits", 0)),
            metadata_entries=int(params.get("metadata_entries", 16)),
        )
    if kind is StageKind.COUNTERS:
        return estimator.counter_bank(
            stage.param("counters"), int(params.get("bits", 64))
        )
    if kind is StageKind.METERS:
        return estimator.meter_bank(stage.param("meters"))
    if kind is StageKind.TIMESTAMP:
        return estimator.timestamp_unit()
    if kind is StageKind.FLOW_CACHE:
        return estimator.flow_cache(
            stage.param("entries"),
            key_bits=int(params.get("key_bits", 104)),
            recipe_bits=int(params.get("recipe_bits", 128)),
        )
    raise CompileError(f"no pricing rule for stage kind {kind}")  # pragma: no cover


#: What :func:`price_pipeline` returns: the app total and the per-stage
#: vectors, glue included.
Price = tuple[ResourceVector, dict[str, ResourceVector]]


def price_pipeline(spec: PipelineSpec, datapath_bits: int) -> Price:
    """Price a whole pipeline: every stage plus inter-stage glue."""
    spec.validate()
    per_stage: dict[str, ResourceVector] = {}
    for stage in spec.stages:
        per_stage[stage.name] = price_stage(stage, datapath_bits)
    glue = estimator.pipeline_glue(len(spec.stages), datapath_bits)
    per_stage["glue"] = glue
    return ResourceVector.sum(list(per_stage.values())), per_stage


def _verification_notes(findings, name: str, strict: bool) -> list[str]:
    """Gate compilation on static findings: errors raise, the rest note.

    In strict builds, error-severity findings abort before any bitstream
    exists; with ``strict=False`` (feasibility sweeps) they degrade to
    notes.  Warnings and infos are always returned as note strings for
    :attr:`SynthesisReport.notes`.
    """
    errors = [f for f in findings if f.severity is Severity.ERROR]
    if errors and strict:
        raise CompileError(
            f"static verification of {name!r} failed: "
            + "; ".join(f.render() for f in errors)
        )
    return [f.render() for f in findings]


def _gate(
    app, spec: PipelineSpec, shell: ShellSpec, device: FPGADevice, strict: bool = True
) -> tuple[list[str], Price]:
    """The verifier gate :func:`compile_app` runs on ``app``'s ``spec``:
    ``(notes, price)``; a strict gate raises on error findings."""
    # Loaded on the first check: the analyzers pull in the app registry.
    from ..analysis.appcheck import _check_priced

    findings, price = _check_priced(app, spec, device, shell)
    name = getattr(app, "name", type(app).__name__)
    return _verification_notes(findings, name, strict), price


def compile_pipeline(
    spec: PipelineSpec,
    shell: ShellSpec,
    clock_hz: float | None = None,
    app_params: dict | None = None,
    strict: bool = True,
    verify: bool = True,
) -> BuildResult:
    """Build a pipeline into a shell on the MPF200T.

    ``clock_hz=None`` lets the flow pick the slowest standard clock that
    sustains the shell's offered rate (the paper's 156.25 MHz for the
    One-Way-Filter at 10G, 312.5 MHz for the Two-Way-Core).  With
    ``strict`` (default), resource overflow or a timing miss raises; with
    ``strict=False`` the report records the failure — useful for
    feasibility sweeps that *want* to see where designs stop fitting.
    ``verify`` (default) runs the :mod:`repro.analysis` IR verifier
    first: error findings raise :class:`CompileError` before synthesis,
    warnings land in the report's notes; ``verify=False`` reproduces the
    pre-verifier flow exactly.  A pipeline with a flow cache declares it
    as a stage; :func:`compile_app` adds one on request.
    """
    verify_notes: list[str] = []
    price = None
    if verify:
        from ..analysis.irverify import _verify_priced

        findings, price = _verify_priced(spec, MPF200T, shell, None)
        verify_notes = _verification_notes(findings, spec.name, strict)
    result = _build_image(spec, shell, MPF200T, clock_hz, strict, price, app_params)
    result.report.notes.extend(verify_notes)
    return result


def _build_image(
    spec: PipelineSpec,
    shell: ShellSpec,
    device: FPGADevice,
    clock_hz: float | None,
    strict: bool,
    price: Price | None,
    app_params: dict | None,
) -> BuildResult:
    """Close timing, fit and emit the image for ``spec``; ``price`` is
    the verifier's ``price_pipeline`` result, or ``None`` to price here."""
    if clock_hz is None:
        clock_hz = shell.standard_ppe_clock_hz()
    if clock_hz > device.max_fabric_mhz * 1e6:
        raise CompileError(
            f"{clock_hz / 1e6:.1f} MHz exceeds {device.name} fabric limit "
            f"({device.max_fabric_mhz:.0f} MHz)"
        )
    timing = TimingSpec(shell.datapath_bits, clock_hz)

    app_total, _ = price or price_pipeline(spec, shell.datapath_bits)
    components = dict(shell.base_components())
    components[f"{spec.name} app"] = app_total
    total = ResourceVector.sum(list(components.values()))

    worst_frame, sustained = timing.worst_case_frame(shell.ppe_offered_rate_bps)
    fits = device.fits(total)
    notes: list[str] = []
    if not fits:
        notes.append("resource overflow: " + "; ".join(device.overflow_report(total)))
    if not sustained:
        notes.append(
            f"timing miss: {timing.clock_hz / 1e6:.1f} MHz × "
            f"{timing.datapath_bits} b cannot sustain "
            f"{shell.ppe_offered_rate_bps / 1e9:.1f} Gbps "
            f"(worst frame {worst_frame} B)"
        )
    if strict and notes:
        raise CompileError(
            f"build of {spec.name!r} on {device.name} failed: {'; '.join(notes)}"
        )

    report = SynthesisReport(
        app_name=spec.name,
        shell=shell,
        device=device,
        timing=timing,
        components=components,
        app_resources=app_total,
        total=total,
        fits=fits,
        meets_timing=sustained,
        worst_case_frame=worst_frame,
        notes=notes,
    )
    bitstream = Bitstream(
        app_name=spec.name,
        shell=shell.kind.value,
        device=device.name,
        timing=timing,
        resources=total,
        payload=synthesize_payload(spec.name, total),
        metadata={"app_params": app_params or {}},
    )
    return BuildResult(report=report, bitstream=bitstream, spec=spec)


def _with_flow_cache(spec: PipelineSpec, entries: int) -> PipelineSpec:
    """Copy of ``spec`` with a flow-cache stage set beside the parser."""
    if entries <= 0:
        raise CompileError("flow_cache_entries must be positive")
    if any(s.kind is StageKind.FLOW_CACHE for s in spec.stages):
        return spec
    name = "fastpath_cache"
    if any(s.name == name for s in spec.stages):  # pragma: no cover
        name = "fastpath_cache_0"
    cache = Stage(name, StageKind.FLOW_CACHE, {"entries": entries})
    stages = list(spec.stages)
    insert_at = next(
        (i + 1 for i, s in enumerate(stages) if s.kind is StageKind.PARSER), 0
    )
    stages.insert(insert_at, cache)
    return PipelineSpec(
        name=spec.name, stages=stages, description=spec.description
    )


def compile_app(
    app,
    shell: ShellSpec,
    device: FPGADevice = MPF200T,
    clock_hz: float | None = None,
    strict: bool = True,
    flow_cache_entries: int | None = None,
) -> BuildResult:
    """Convenience: build a :class:`PPEApplication` instance.

    The full static-analysis surface runs before synthesis — the IR
    verifier plus, for XDP programs, the AST analyzer
    (:func:`repro.analysis.check_app`).  In strict builds, error findings
    raise :class:`CompileError` before any packet could ever be processed;
    warnings merge into :attr:`SynthesisReport.notes` together with any
    pending runtime :meth:`XdpProgram.lint` observations, so declaration
    drift is surfaced on every recompile instead of being dropped.
    """
    spec = app.pipeline_spec()
    if flow_cache_entries is not None:
        # Verified as built: a cache that overflows the device is an
        # ir-resource-fit finding naming its stage, and one price serves.
        spec = _with_flow_cache(spec, flow_cache_entries)
    verify_notes, price = _gate(app, spec, shell, device, strict)
    result = _build_image(spec, shell, device, clock_hz, strict, price, app.config())
    lint = getattr(app, "lint", None)
    if callable(lint):
        verify_notes.extend(f"lint: {warning}" for warning in lint())
    result.report.notes.extend(verify_notes)
    return result
