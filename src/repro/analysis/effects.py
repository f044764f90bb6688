"""IR effect inference: prove burst fusibility and line-rate feasibility.

The compiled engine tier (``repro.hls.compile_executor``) fuses whole
same-flow bursts through one :class:`~repro.core.flowcache.FlowRecipe`
application.  That is only sound when the program's effects commute across
the frames of a burst — no arrival-time-dependent output, no
non-commutative per-flow state.  This module *derives* that from the
pipeline IR, the way hXDP/P4 toolchains answer feasibility questions:
with a dataflow pass, not a hand-written declaration or runtime trust.

The pass abstractly interprets a :class:`~repro.hls.ir.PipelineSpec` stage
by stage into a per-stage effect record (:class:`StageEffect`: header
read/write bits, table/meter state access, arrival-time reads, verdict
dependence, commutativity) and folds the records into an
:class:`EffectSummary`:

* **fusibility proof** — a burst mode (``pure`` / ``unfusible``) with
  the blocking stages named when fusion is unsound,
  plus derived ``key_bits``/``rewrite_bits``, the flow key and rewrite
  widths of the fused lane (replacing the hand-declared profile numbers);
* **worst-case timing** — per-frame table-port conflict cycles that feed
  :meth:`repro.fpga.timing.TimingSpec.sustains_line_rate`, so
  ``flexsfp check`` statically rejects programs that cannot hold the
  shell's line rate.

Modeling assumptions (the abstraction's contract):

* datapath tables (``EXACT/LPM/TERNARY``) are match-only in the fast
  path; writes come from the control plane and are serialized against
  in-flight frames by the engine's pre-mutation drain hook;
* ``COUNTERS`` are commutative per-flow state (sum of packets/bytes), so
  counting a burst in aggregate equals counting it per frame — unless the
  counted value depends on arrival time;
* ``METERS`` are non-commutative read-modify-write state keyed by arrival
  time (token refill): each frame's verdict depends on the bucket the
  frames before it left at their arrival times, so no one recorded
  decision stands for a burst and a metered program is unfusible;
* ``TIMESTAMP`` makes the arrival clock visible to the program.  If any
  writer stage (``ACTION``, ``COUNTERS``) can fold that value into
  headers or state, every frame of a burst would produce distinct output
  and fusion is unsound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..apps import APP_FACTORIES, create_app
from ..core.ppe import PPEApplication
from ..core.shells import ShellSpec
from ..fpga.timing import TimingSpec
from ..hls.ir import PipelineSpec, Stage, StageKind
from .findings import Finding, Severity, sort_findings

# Burst modes the classifier can prove.
MODE_PURE = "pure"
MODE_UNFUSIBLE = "unfusible"

# Synthesized table RAMs are dual-ported (LSRAM on PolarFire-class parts):
# two accesses per cycle are free, each access beyond that double-pumps and
# stalls the frame one cycle.
TABLE_SRAM_PORTS = 2

# Smallest fused-executor key the hash unit accepts: programs whose verdict
# depends on no table key (pure header classification, e.g. a VLAN tagger)
# still hash *something* to index the flow cache.
MIN_KEY_BITS = 16

_TABLE_KINDS = (
    StageKind.EXACT_TABLE,
    StageKind.LPM_TABLE,
    StageKind.TERNARY_TABLE,
)


@dataclass(frozen=True)
class StageEffect:
    """The effect lattice value for one pipeline stage.

    Bit counts are per frame; ``table_accesses`` is per frame *per
    direction* (the shell multiplies by the directions it serves).
    ``commutative`` states whether the stage's state writes commute across
    reordered/aggregated frames; ``reads_time`` whether the stage consumes
    the arrival clock.
    """

    stage: str
    kind: str
    header_read_bits: int = 0
    header_write_bits: int = 0
    state_read_bits: int = 0
    state_write_bits: int = 0
    table_accesses: int = 0
    reads_time: bool = False
    commutative: bool = True
    verdict_dep: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "stage": self.stage,
            "kind": self.kind,
            "header_read_bits": self.header_read_bits,
            "header_write_bits": self.header_write_bits,
            "state_read_bits": self.state_read_bits,
            "state_write_bits": self.state_write_bits,
            "table_accesses": self.table_accesses,
            "reads_time": self.reads_time,
            "commutative": self.commutative,
            "verdict_dep": self.verdict_dep,
        }


@dataclass(frozen=True)
class EffectSummary:
    """Folded per-app effect report: the fusibility proof.

    ``burst_mode`` is the classification the compiled engine keys on:

    * ``pure`` — every effect is a pure function of (headers, direction,
      table state); one decision stands for a whole same-flow burst.
    * ``unfusible`` — arrival time reaches the verdict through a
      ``METERS`` stage, or headers or state through a writer stage;
      ``blockers`` names the stages that prove it.

    ``key_bits``/``rewrite_bits`` are the *derived* fused-executor widths:
    the flow key cannot need more bits than the narrowest of (parsed
    header bits, the total match-key bits the program compares), and the
    rewrite lane carries exactly the ACTION stages' declared bits.
    """

    pipeline: str
    effects: tuple[StageEffect, ...]
    parsed_bits: int
    key_bits: int
    rewrite_bits: int
    burst_mode: str
    blockers: tuple[str, ...]

    @property
    def fusible(self) -> bool:
        return self.burst_mode != MODE_UNFUSIBLE

    def conflict_cycles(self, directions: int = 1) -> int:
        """Per-frame stall cycles from table-port conflicts.

        Each table RAM serves ``TABLE_SRAM_PORTS`` accesses per cycle;
        a stage needing more (``lookups_per_frame`` > 1, or one lookup
        per direction on a two-way shell, doubled again for meter
        read-modify-write) double-pumps and charges one stall cycle per
        excess access.
        """
        total = 0
        for effect in self.effects:
            if not effect.table_accesses:
                continue
            accesses = effect.table_accesses * directions
            total += max(0, accesses - TABLE_SRAM_PORTS)
        return total

    def to_dict(self) -> dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "parsed_bits": self.parsed_bits,
            "key_bits": self.key_bits,
            "rewrite_bits": self.rewrite_bits,
            "burst_mode": self.burst_mode,
            "fusible": self.fusible,
            "blockers": list(self.blockers),
            "effects": [effect.to_dict() for effect in self.effects],
        }

    def digest(self) -> str:
        """Canonical content digest (detects analysis/IR drift in diffs)."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class LineRateVerdict:
    """Static line-rate feasibility at a shell's default operating point."""

    timing: TimingSpec
    conflict_cycles: int
    worst_frame: int
    sustained: bool

    def to_dict(self) -> dict[str, object]:
        return {
            "clock_mhz": round(self.timing.clock_hz / 1e6, 3),
            "datapath_bits": self.timing.datapath_bits,
            "conflict_cycles": self.conflict_cycles,
            "worst_frame": self.worst_frame,
            "sustained": self.sustained,
        }


# ----------------------------------------------------------------------
# Per-stage abstract interpretation
# ----------------------------------------------------------------------
def _stage_effect(stage: Stage) -> StageEffect:
    """Abstract one stage into its effect lattice value."""
    kind = stage.kind
    name = stage.name
    kind_value = kind.value
    if kind is StageKind.PARSER:
        bits = stage.param("header_bytes") * 8
        return StageEffect(name, kind_value, header_read_bits=bits)
    if kind is StageKind.DEPARSER:
        bits = stage.param("header_bytes") * 8
        return StageEffect(name, kind_value, header_write_bits=bits)
    if kind in _TABLE_KINDS:
        lookups = int(stage.params.get("lookups_per_frame", 1))
        return StageEffect(
            name,
            kind_value,
            header_read_bits=stage.param("key_bits"),
            state_read_bits=stage.param("key_bits") + stage.param("value_bits"),
            table_accesses=lookups,
            verdict_dep=True,
        )
    if kind is StageKind.ACTION:
        bits = stage.param("rewrite_bits")
        return StageEffect(name, kind_value, header_write_bits=bits)
    if kind is StageKind.CHECKSUM:
        return StageEffect(
            name, kind_value, header_read_bits=16, header_write_bits=16
        )
    if kind is StageKind.HASH:
        return StageEffect(
            name, kind_value, header_read_bits=stage.param("key_bits")
        )
    if kind is StageKind.COUNTERS:
        # Per-flow packet/byte sums: commutative state, no verdict feed.
        return StageEffect(
            name, kind_value, state_write_bits=64 * stage.param("counters")
        )
    if kind is StageKind.METERS:
        # Token buckets: read-modify-write keyed by arrival time.  The
        # access count is doubled — one read port plus one write port per
        # frame — which is what makes a two-way meter double-pump.
        return StageEffect(
            name,
            kind_value,
            state_read_bits=64,
            state_write_bits=64,
            table_accesses=2,
            reads_time=True,
            commutative=False,
            verdict_dep=True,
        )
    if kind is StageKind.TIMESTAMP:
        return StageEffect(name, kind_value, reads_time=True)
    # FIFO / FLOW_CACHE: plumbing beside the datapath, no program effects.
    return StageEffect(name, kind_value)


def _classify(effects: tuple[StageEffect, ...]) -> tuple[str, tuple[str, ...]]:
    """Fold stage effects into (burst_mode, blockers).

    Two ways arrival time makes each frame's outcome its own:

    * ``METERS`` read-modify-write a token bucket at each frame's arrival,
      so the verdict of one frame depends on the arrivals before it;
    * a ``TIMESTAMP`` stage makes the arrival clock a live value for the
      whole program (IR stage order is structural, not def-use order — the
      ratelimiter stamps *after* its meter stage), and ``ACTION`` /
      ``COUNTERS`` with a live clock can fold per-frame times into headers
      or state.

    Either makes the program unfusible; anything else is ``pure``.
    """
    by_kind: dict[str, list[StageEffect]] = {}
    for effect in effects:
        by_kind.setdefault(effect.kind, []).append(effect)
    stamps = by_kind.get(StageKind.TIMESTAMP.value, [])
    writers = by_kind.get(StageKind.ACTION.value, []) + by_kind.get(
        StageKind.COUNTERS.value, []
    )
    blockers = [
        f"{meter.stage}: token bucket is read-modify-written at each "
        "frame's arrival clock; per-frame verdicts differ"
        for meter in by_kind.get(StageKind.METERS.value, [])
    ]
    blockers += [
        f"{stamp.stage}: arrival clock flows into writer stage "
        f"{writer.stage!r} ({writer.kind}); per-frame outputs differ"
        for stamp in stamps
        for writer in writers
    ]
    if blockers:
        return MODE_UNFUSIBLE, tuple(blockers)
    return MODE_PURE, ()


def analyze_pipeline(spec: PipelineSpec) -> EffectSummary:
    """Run the effect dataflow over one pipeline spec."""
    effects = tuple(_stage_effect(stage) for stage in spec.stages)
    parsed_bits = max(
        (e.header_read_bits for e in effects if e.kind == StageKind.PARSER.value),
        default=0,
    )
    match_bits = sum(
        stage.param("key_bits") for stage in spec.stages if stage.kind in _TABLE_KINDS
    )
    if match_bits:
        key_bits = min(match_bits, parsed_bits) if parsed_bits else match_bits
    else:
        key_bits = MIN_KEY_BITS
    key_bits = max(key_bits, MIN_KEY_BITS)
    rewrite_bits = sum(
        e.header_write_bits
        for e in effects
        if e.kind == StageKind.ACTION.value
    )
    burst_mode, blockers = _classify(effects)
    return EffectSummary(
        pipeline=spec.name,
        effects=effects,
        parsed_bits=parsed_bits,
        key_bits=key_bits,
        rewrite_bits=rewrite_bits,
        burst_mode=burst_mode,
        blockers=blockers,
    )


def analyze_app(app) -> EffectSummary:
    """Effect summary of an application's synthesized pipeline."""
    return analyze_pipeline(app.pipeline_spec())


# ----------------------------------------------------------------------
# Runtime engagement
# ----------------------------------------------------------------------
def fusion_engagement(app, summary: EffectSummary) -> str | None:
    """Which fused runtime lane the app can actually drive, if any.

    The proof says fusion is *sound*; engagement says the application
    implements the one runtime hook the recipe lane needs, a ``flow_key``
    override (the recipe itself is recorded from ``process``).
    Proven-but-unengaged apps simply deopt.
    """
    if not summary.fusible:
        return None
    keyed = getattr(type(app), "flow_key", None) is not PPEApplication.flow_key
    return MODE_PURE if keyed else None


# ----------------------------------------------------------------------
# Timing: worst-case cycles against a shell operating point
# ----------------------------------------------------------------------
def line_rate_verdict(
    summary: EffectSummary, shell: ShellSpec
) -> LineRateVerdict:
    """Static line-rate feasibility at the shell's default clock.

    Evaluates the same operating point ``compile_pipeline`` would pick
    (the slowest standard clock sustaining the base streaming beats) and
    charges the effect-derived per-frame conflict cycles on top — the
    cycles the clock selection never saw.
    """
    directions = 1 if shell.rate_multiplier == 1.0 else 2
    timing = TimingSpec(shell.datapath_bits, shell.standard_ppe_clock_hz())
    extra = summary.conflict_cycles(directions)
    worst_frame, sustained = timing.worst_case_frame(
        shell.ppe_offered_rate_bps, extra_cycles=extra
    )
    return LineRateVerdict(
        timing=timing,
        conflict_cycles=extra,
        worst_frame=worst_frame,
        sustained=sustained,
    )


def effect_findings(
    app,
    shell: ShellSpec | None = None,
    summary: EffectSummary | None = None,
) -> list[Finding]:
    """Machine-readable effect report for one application.

    * ``effect-line-rate`` (error): the derived worst-case per-frame
      cycle count cannot hold the shell's offered rate — the program is
      statically rejected before any bitstream exists.
    * ``effect-port-conflict`` (warning): a table needs more per-frame
      accesses than its RAM has ports; each excess access double-pumps.
    * ``effect-unfusible`` (info): which instruction blocks burst fusion.
    """
    if summary is None:
        summary = analyze_app(app)
    if shell is None:
        shell = ShellSpec()
    name = getattr(app, "name", summary.pipeline)
    findings: list[Finding] = []
    directions = 1 if shell.rate_multiplier == 1.0 else 2
    for effect in summary.effects:
        if not effect.table_accesses:
            continue
        accesses = effect.table_accesses * directions
        if accesses > TABLE_SRAM_PORTS:
            findings.append(
                Finding(
                    "effect-port-conflict",
                    Severity.WARNING,
                    f"{name}:{effect.stage}",
                    f"{accesses} table accesses/frame exceed the RAM's "
                    f"{TABLE_SRAM_PORTS} ports; each excess access "
                    "double-pumps and stalls the frame one cycle",
                    "reduce lookups_per_frame or replicate the table",
                )
            )
    verdict = line_rate_verdict(summary, shell)
    if not verdict.sustained:
        findings.append(
            Finding(
                "effect-line-rate",
                Severity.ERROR,
                f"{name}:pipeline",
                f"worst-case frame ({verdict.worst_frame} B) needs "
                f"{verdict.conflict_cycles} conflict cycle(s) on top of the "
                f"streaming beats; {verdict.timing.clock_hz / 1e6:.2f} MHz × "
                f"{verdict.timing.datapath_bits} b cannot sustain "
                f"{shell.ppe_offered_rate_bps / 1e9:.1f} Gbps",
                "remove the port conflicts, widen the datapath, or lower "
                "the line rate",
            )
        )
    if not summary.fusible:
        for blocker in summary.blockers:
            findings.append(
                Finding(
                    "effect-unfusible",
                    Severity.INFO,
                    f"{name}:pipeline",
                    f"burst fusion blocked — {blocker}",
                    "compiled-tier bursts deopt to the exact per-frame lane",
                )
            )
    return sort_findings(findings)


_CORPUS_DIGEST: dict[tuple[str, ...], str] = {}


def corpus_digest(app_names=None) -> str:
    """One digest over every bundled app's effect summary.

    Reported by ``flexsfp check --fusibility``: any change to the analysis
    or to a bundled pipeline shifts the digest.  The result is a pure
    function of the bundled IR, so it is memoized.
    """
    names = tuple(sorted(APP_FACTORIES) if app_names is None else sorted(app_names))
    cached = _CORPUS_DIGEST.get(names)
    if cached is not None:
        return cached
    blob = hashlib.sha256()
    for name in names:
        summary = analyze_app(create_app(name))
        blob.update(name.encode())
        blob.update(summary.digest().encode())
    digest = _CORPUS_DIGEST[names] = blob.hexdigest()[:16]
    return digest
