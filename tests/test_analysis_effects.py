"""Effect inference: per-app proofs, classifier soundness, timing verdicts.

The expectation table at the top is the contract the compiled tier now
rests on: these modes and widths are *derived* from the pipeline IR, not
declared, so any app or analysis change that shifts them fails here
loudly.  The synthetic-pipeline and hypothesis sections exercise the
classifier away from the bundled corpus; the runtime section proves the
fusible set is sound against the engine (frames only ever fuse for apps
the analysis proved fusible).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity
from repro.analysis.effects import (
    MIN_KEY_BITS,
    MODE_METER,
    MODE_PURE,
    MODE_UNFUSIBLE,
    analyze_app,
    analyze_pipeline,
    corpus_digest,
    effect_findings,
    fusion_engagement,
    line_rate_verdict,
)
from repro.apps import APP_FACTORIES, create_app
from repro.core import ShellSpec
from repro.core.shells import ShellKind
from repro.hls.ir import PipelineSpec, Stage, StageKind

# (proved mode, engaged runtime lane, key_bits, rewrite_bits) per bundled
# app.  "Proved but unengaged" rows (tunnel, sanitizer, …) are apps whose
# effects are pure but that don't implement the recipe hooks — they deopt.
EXPECTED = {
    "nat": (MODE_PURE, MODE_PURE, 32, 32),
    "firewall": (MODE_PURE, MODE_PURE, 104, 0),
    "loadbalancer": (MODE_PURE, MODE_PURE, 72, 80),
    "dnsfilter": (MODE_PURE, MODE_PURE, 96, 0),
    "ratelimiter": (MODE_METER, MODE_METER, 32, 0),
    "vlan": (MODE_PURE, MODE_PURE, 16, 48),
    "tunnel": (MODE_PURE, None, 32, 400),
    "sanitizer": (MODE_PURE, None, 16, 320),
    "ipv6filter": (MODE_PURE, None, 16, 0),
    "passthrough": (MODE_PURE, None, 16, 0),
    "punt": (MODE_PURE, None, 32, 0),
    "int": (MODE_UNFUSIBLE, None, 16, 176),
    "linkhealth": (MODE_UNFUSIBLE, None, 16, 0),
    "telemetry": (MODE_UNFUSIBLE, None, 104, 0),
}


def stage(name, kind, **params):
    return Stage(name, kind, params)


def pipeline(*stages):
    return PipelineSpec("synthetic", list(stages))


def parser(bits=112):
    return stage("parse", StageKind.PARSER, header_bytes=bits // 8)


def table(name="match", lookups=None, key_bits=32):
    params = dict(entries=64, key_bits=key_bits, value_bits=32)
    if lookups is not None:
        params["lookups_per_frame"] = lookups
    return stage(name, StageKind.EXACT_TABLE, **params)


class TestCorpusExpectations:
    def test_registry_is_fully_covered(self):
        assert set(EXPECTED) == set(APP_FACTORIES)

    @pytest.mark.parametrize("name", sorted(APP_FACTORIES))
    def test_derived_mode_and_widths(self, name):
        mode, engaged, key_bits, rewrite_bits = EXPECTED[name]
        app = create_app(name)
        summary = analyze_app(app)
        assert summary.burst_mode == mode
        assert summary.key_bits == key_bits
        assert summary.rewrite_bits == rewrite_bits
        assert fusion_engagement(app, summary) == engaged

    def test_fusible_floor_holds(self):
        """The acceptance bar: >= 6 apps prove fusible AND engage."""
        engaged = {
            name
            for name in APP_FACTORIES
            if fusion_engagement(
                app := create_app(name), analyze_app(app)
            )
            is not None
        }
        assert engaged >= {
            "nat", "firewall", "loadbalancer", "dnsfilter",
            "ratelimiter", "vlan",
        }

    def test_unfusible_apps_name_their_blockers(self):
        blockers = {
            name: analyze_app(create_app(name)).blockers
            for name, row in EXPECTED.items()
            if row[0] == MODE_UNFUSIBLE
        }
        assert set(blockers) == {"int", "linkhealth", "telemetry"}
        for name, reasons in blockers.items():
            assert reasons, name
            assert all("arrival clock" in reason for reason in reasons), name

    def test_fusible_apps_have_no_blockers(self):
        for name, row in EXPECTED.items():
            if row[0] != MODE_UNFUSIBLE:
                assert analyze_app(create_app(name)).blockers == (), name


class TestDigests:
    def test_summary_digest_is_stable_across_instances(self):
        for name in sorted(APP_FACTORIES):
            first = analyze_app(create_app(name)).digest()
            second = analyze_app(create_app(name)).digest()
            assert first == second, name

    def test_corpus_digest_is_deterministic(self):
        assert corpus_digest() == corpus_digest()

    def test_corpus_digest_depends_on_membership(self):
        assert corpus_digest(["nat"]) != corpus_digest(["nat", "vlan"])

    def test_corpus_digest_ignores_name_order(self):
        assert corpus_digest(["vlan", "nat"]) == corpus_digest(["nat", "vlan"])


class TestSyntheticClassifier:
    def test_tables_and_actions_are_pure(self):
        spec = pipeline(
            parser(),
            table(),
            stage("edit", StageKind.ACTION, rewrite_bits=48),
        )
        summary = analyze_pipeline(spec)
        assert summary.burst_mode == MODE_PURE
        assert summary.key_bits == 32
        assert summary.rewrite_bits == 48

    def test_meter_classifies_as_meter(self):
        spec = pipeline(parser(), stage("police", StageKind.METERS, meters=8))
        assert analyze_pipeline(spec).burst_mode == MODE_METER

    def test_timestamp_into_action_is_unfusible(self):
        spec = pipeline(
            parser(),
            stage("ts", StageKind.TIMESTAMP),
            stage("edit", StageKind.ACTION, rewrite_bits=32),
        )
        summary = analyze_pipeline(spec)
        assert summary.burst_mode == MODE_UNFUSIBLE
        assert any("edit" in blocker for blocker in summary.blockers)

    def test_timestamp_into_counters_is_unfusible(self):
        spec = pipeline(
            parser(),
            stage("ts", StageKind.TIMESTAMP),
            stage("stats", StageKind.COUNTERS, counters=4),
        )
        assert analyze_pipeline(spec).burst_mode == MODE_UNFUSIBLE

    def test_timestamp_alone_is_pure(self):
        spec = pipeline(parser(), stage("ts", StageKind.TIMESTAMP))
        assert analyze_pipeline(spec).burst_mode == MODE_PURE

    def test_meter_plus_timestamped_action_is_unfusible(self):
        spec = pipeline(
            parser(),
            stage("ts", StageKind.TIMESTAMP),
            stage("police", StageKind.METERS, meters=8),
            stage("edit", StageKind.ACTION, rewrite_bits=32),
        )
        assert analyze_pipeline(spec).burst_mode == MODE_UNFUSIBLE

    def test_key_bits_floor(self):
        spec = pipeline(parser(16))
        assert analyze_pipeline(spec).key_bits == MIN_KEY_BITS

    def test_key_bits_clamped_to_parsed_headers(self):
        spec = pipeline(parser(32), table(key_bits=104))
        assert analyze_pipeline(spec).key_bits == 32


class TestConflictCycles:
    def test_single_lookup_is_conflict_free_one_way(self):
        summary = analyze_pipeline(pipeline(parser(), table()))
        assert summary.conflict_cycles(1) == 0
        assert summary.conflict_cycles(2) == 0

    def test_multi_lookup_double_pumps(self):
        summary = analyze_pipeline(pipeline(parser(), table(lookups=4)))
        # 4 accesses over 2 ports: 2 stall cycles; doubled two-way: 6.
        assert summary.conflict_cycles(1) == 2
        assert summary.conflict_cycles(2) == 6

    def test_meter_conflicts_only_two_way(self):
        summary = analyze_app(create_app("ratelimiter"))
        assert summary.conflict_cycles(1) == 0
        assert summary.conflict_cycles(2) == 2


class TestLineRateVerdicts:
    def test_default_shell_sustains_every_bundled_app(self):
        shell = ShellSpec()
        for name in sorted(APP_FACTORIES):
            verdict = line_rate_verdict(analyze_app(create_app(name)), shell)
            assert verdict.sustained, name

    def test_two_way_meter_is_statically_rejected(self):
        """The check-time rejection: the paper's 312.5 MHz x 64 b operating
        point cannot absorb the meter's double-pump on a two-way shell."""
        app = create_app("ratelimiter")
        shell = ShellSpec(kind=ShellKind.TWO_WAY_CORE)
        verdict = line_rate_verdict(analyze_app(app), shell)
        assert not verdict.sustained
        assert verdict.conflict_cycles == 2
        findings = effect_findings(app, shell)
        rules = {f.rule for f in findings}
        assert "effect-line-rate" in rules
        assert "effect-port-conflict" in rules
        assert any(
            f.rule == "effect-line-rate" and f.severity is Severity.ERROR
            for f in findings
        )

    def test_multi_lookup_table_warns_on_ports(self):
        summary = analyze_pipeline(pipeline(parser(), table(lookups=3)))
        assert summary.conflict_cycles(1) == 1

    def test_verdict_serializes(self):
        verdict = line_rate_verdict(
            analyze_app(create_app("nat")), ShellSpec()
        )
        payload = verdict.to_dict()
        assert set(payload) == {
            "clock_mhz", "datapath_bits", "conflict_cycles",
            "worst_frame", "sustained",
        }


_KINDS = st.sampled_from(
    [
        ("table", StageKind.EXACT_TABLE),
        ("edit", StageKind.ACTION),
        ("stats", StageKind.COUNTERS),
        ("police", StageKind.METERS),
        ("ts", StageKind.TIMESTAMP),
        ("sum", StageKind.CHECKSUM),
    ]
)


def _make_stage(index, row):
    prefix, kind = row
    name = f"{prefix}{index}"
    if kind in (StageKind.EXACT_TABLE,):
        return stage(name, kind, entries=16, key_bits=32, value_bits=16)
    if kind is StageKind.ACTION:
        return stage(name, kind, rewrite_bits=24)
    if kind is StageKind.COUNTERS:
        return stage(name, kind, counters=2)
    if kind is StageKind.METERS:
        return stage(name, kind, meters=4)
    return stage(name, kind)


class TestClassifierProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_KINDS, min_size=0, max_size=6))
    def test_classification_is_sound(self, rows):
        spec = pipeline(
            parser(), *(_make_stage(i, row) for i, row in enumerate(rows))
        )
        summary = analyze_pipeline(spec)
        kinds = {row[1] for row in rows}
        # Pure means nothing non-commutative and no live clock reaching a
        # writer; the classifier must never call a metered pipeline pure.
        if StageKind.METERS in kinds:
            assert summary.burst_mode != MODE_PURE
        else:
            assert summary.burst_mode != MODE_METER
        assert summary.fusible == (summary.burst_mode != MODE_UNFUSIBLE)
        assert bool(summary.blockers) == (not summary.fusible)
        assert summary.key_bits >= MIN_KEY_BITS
        assert summary.conflict_cycles(2) >= summary.conflict_cycles(1) >= 0
        assert summary.digest() == analyze_pipeline(spec).digest()


@pytest.mark.parametrize("name", sorted(APP_FACTORIES))
def test_fusible_set_is_sound_vs_runtime(name):
    """Runtime soundness: frames fuse only for apps the analysis proved.

    Drives each bundled app's compiled engine through a same-flow CBR
    burst (fusion's best case).  If the engine recorded fused recipe
    frames the analysis must have proved the app fusible; if the analysis
    says unfusible, the engine must have deopted every frame.
    """
    from tests.test_compiled_differential import run_cbr_burst

    summary = analyze_app(create_app(name))
    _, module = run_cbr_burst(name, "compiled")
    ppe = module.ppe
    if ppe.compiled_frames > 0:
        assert summary.fusible, name
    if not summary.fusible:
        assert ppe.compiled_frames == 0, (name, ppe.compiled_deopts)
        assert ppe.compiled_deopts > 0, name
    assert module.program.summary.digest() == summary.digest()
