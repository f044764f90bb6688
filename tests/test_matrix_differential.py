"""Matrix differential suite: the engine-axis oracle.

This replaces per-app differential test growth: instead of writing a new
fast-vs-reference test for every backend, the matrix sweeps the engine
axis over representative scenarios and asserts ``diff_artifacts()``
reports zero *semantic* divergence against the reference cell.
Timing-only fields (wall clock, flow-cache counters, event counts) are
excluded by the diff's classification rules — which is exactly the
fast-engine contract: identical verdicts, drops, latency buckets, and
delivered bytes.
"""

from __future__ import annotations

import pytest

from repro.matrix import MatrixAxes, run_matrix
from repro.obs.scenario import ScenarioSpec, TrafficProfile

# Short chaos window: the gauntlet's early fault cluster still fires,
# while the suite stays fast enough for the tier-1 run.
CHAOS_TRAFFIC = TrafficProfile(rate_bps=50e6, frame_len=512, duration_s=0.4)

ENGINE_AXES = MatrixAxes(engines=("reference", "compiled"))


@pytest.fixture(scope="module")
def nat_matrix():
    return run_matrix(
        ScenarioSpec(kind="nat-linerate", seed=11), ENGINE_AXES
    )


@pytest.fixture(scope="module")
def chaos_matrix():
    return run_matrix(
        ScenarioSpec(
            kind="chaos", fault_plan="smoke", seed=7, traffic=CHAOS_TRAFFIC
        ),
        ENGINE_AXES,
    )


class TestNatLinerateSweep:
    def test_zero_semantic_divergence(self, nat_matrix):
        assert nat_matrix.verdict == "clean"
        for cell in nat_matrix.cells:
            assert not cell.diverged, (
                f"{cell.config.label} diverged: "
                f"{[e.to_dict() for e in cell.diff.semantic_entries]}"
            )

    def test_all_engine_fastpath_cells_ran(self, nat_matrix):
        # One cell per tier: the engine axis has no sub-options to cross.
        assert [cell.config.engine for cell in nat_matrix.cells] == [
            "reference",
            "compiled",
        ]

    def test_compiled_cell_fused_real_bursts(self, nat_matrix):
        """The compiled cell demonstrably ran the fused lane (not a
        vacuous differential where everything deopted or never fused)."""
        (cell,) = [
            cell for cell in nat_matrix.cells if cell.config.engine == "compiled"
        ]
        metrics = cell.artifact.metrics
        fused = sum(
            value
            for name, value in metrics.items()
            if name.endswith(".compiled.recipe_frames")
        )
        assert fused > 0, "compiled cell never executed a fused recipe"

    def test_semantic_shard_digests_agree_across_engines(self, nat_matrix):
        digests = {
            cell.artifact.shards[0]["semantic_digest"]
            for cell in nat_matrix.cells
        }
        assert len(digests) == 1, "engines disagree on the semantic payload"

    def test_raw_digests_differ_where_metric_sets_do(self, nat_matrix):
        # Sanity check that the semantic digest is doing real work: the
        # raw (unfiltered) digests differ across engine cells because
        # the compiled cell carries flow-cache metrics.
        raw = {cell.artifact.shards[0]["digest"] for cell in nat_matrix.cells}
        assert len(raw) > 1

    def test_every_cell_is_complete(self, nat_matrix):
        assert nat_matrix.ok
        for cell in nat_matrix.cells:
            assert cell.artifact.completeness["ok"] is True


class TestChaosSweep:
    def test_zero_semantic_divergence(self, chaos_matrix):
        assert chaos_matrix.verdict == "clean"
        for cell in chaos_matrix.cells:
            assert not cell.diverged, (
                f"{cell.config.label} diverged: "
                f"{[e.to_dict() for e in cell.diff.semantic_entries]}"
            )

    def test_gauntlet_summaries_agree_across_engines(self, chaos_matrix):
        summaries = [cell.artifact.shards[0]["summary"] for cell in chaos_matrix.cells]
        assert all(summary == summaries[0] for summary in summaries[1:])
        assert summaries[0]["packets_sent"] > 0


class TestShardCountSweep:
    def test_shard_axis_reports_no_semantic_divergence(self):
        result = run_matrix(
            ScenarioSpec(kind="nat-linerate", seed=11),
            MatrixAxes(engines=("reference", "compiled"), shards=(1, 2)),
        )
        assert result.verdict == "clean"
        # Cross-shard-count cells skip the merged view with a note but
        # still compare the common shard prefix.
        cross = [
            cell
            for cell in result.cells
            if cell.diff is not None and cell.config.shards != 1
        ]
        assert cross, "expected cross-shard-count cells"
        for cell in cross:
            assert any("merged views" in note for note in cell.diff.notes)
