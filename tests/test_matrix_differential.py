"""Matrix differential suite: the engine-axis oracle.

Instead of a fast-vs-reference test per backend, ``repro.matrix`` runs
each declared cell on both tiers and ``diff_artifacts()`` must report
zero *semantic* divergence against the reference cell.  Timing-only
fields (wall clock, flow-cache counters, event counts) are excluded by
the diff's classification rules, which is exactly the fast-engine
contract: identical verdicts, drops, latency buckets and delivered
bytes.  The ``nat-linerate`` checks read the declared cells (the
session's ``nat_sweep``); the chaos pair is tier-1's fresh cross-tier run.
"""

from __future__ import annotations

import pytest

from repro.artifact import diff_artifacts
from repro.matrix import MatrixAxes, run_matrix
from repro.obs.scenario import ScenarioSpec, TrafficProfile
from repro.parallel import run_sharded

# Short chaos window: the gauntlet's early fault cluster still fires,
# while the suite stays fast enough for the tier-1 run.
CHAOS_TRAFFIC = TrafficProfile(rate_bps=50e6, frame_len=512, duration_s=0.4)


@pytest.fixture(scope="module")
def chaos_matrix():
    return run_matrix(
        ScenarioSpec(kind="chaos", fault_plan="smoke", seed=7, traffic=CHAOS_TRAFFIC),
        MatrixAxes(),
    )


def _one_shard_pair(nat_sweep):
    """The one-shard ``nat-linerate`` cells, reference first."""
    return [cell for cell in nat_sweep.cells if cell.config.shards == 1]


class TestNatLinerateSweep:
    def test_zero_semantic_divergence(self, nat_sweep):
        assert nat_sweep.verdict == "clean"
        for cell in nat_sweep.cells:
            assert not cell.diverged, (
                f"{cell.label} diverged: "
                f"{[e.to_dict() for e in cell.diff.semantic_entries]}"
            )

    def test_all_engine_fastpath_cells_ran(self, nat_sweep):
        # One cell per tier: the engine axis has no sub-options to cross.
        assert [cell.config.engine for cell in _one_shard_pair(nat_sweep)] == [
            "reference",
            "compiled",
        ]

    def test_compiled_cell_fused_real_bursts(self, nat_sweep):
        """The compiled cell demonstrably ran the fused lane (not a
        vacuous differential where everything deopted or never fused)."""
        (cell,) = [c for c in _one_shard_pair(nat_sweep) if c.config.engine == "compiled"]
        fused = sum(
            value
            for name, value in cell.artifact.metrics.items()
            if name.endswith(".compiled.recipe_frames")
        )
        assert fused > 0, "compiled cell never executed a fused recipe"

    def test_semantic_shard_digests_agree_across_engines(self, nat_sweep):
        digests = {
            cell.artifact.shards[0]["semantic_digest"] for cell in _one_shard_pair(nat_sweep)
        }
        assert len(digests) == 1, "engines disagree on the semantic payload"

    def test_raw_digests_differ_where_metric_sets_do(self, nat_sweep):
        # Sanity check that the semantic digest is doing real work: the
        # raw (unfiltered) digests differ across engine cells because
        # the compiled cell carries flow-cache metrics.
        raw = {cell.artifact.shards[0]["digest"] for cell in _one_shard_pair(nat_sweep)}
        assert len(raw) > 1

    def test_every_cell_is_complete(self, nat_sweep):
        assert nat_sweep.ok
        for cell in nat_sweep.cells:
            assert cell.artifact.completeness["ok"] is True


class TestChaosSweep:
    def test_zero_semantic_divergence(self, chaos_matrix):
        assert chaos_matrix.verdict == "clean"
        for cell in chaos_matrix.cells:
            assert not cell.diverged, (
                f"{cell.label} diverged: "
                f"{[e.to_dict() for e in cell.diff.semantic_entries]}"
            )

    def test_gauntlet_summaries_agree_across_engines(self, chaos_matrix):
        summaries = [cell.artifact.shards[0]["summary"] for cell in chaos_matrix.cells]
        assert len(summaries) == 2
        assert summaries[0] == summaries[1]
        assert summaries[0]["packets_sent"] > 0


class TestShardCountSweep:
    def test_shard_axis_reports_no_semantic_divergence(self, nat_sweep):
        assert nat_sweep.verdict == "clean"
        fleets = [cell for cell in nat_sweep.cells if cell.config.shards != 1]
        assert [cell.label for cell in fleets] == [
            "nat-linerate/reference/11/shards=4",
            "nat-linerate/compiled/11/shards=4",
        ]
        # Against a one-shard run at the same root, the merged views are
        # skipped with a note and the common shard (index 0, same seed)
        # still compares.
        solo = run_sharded(
            ScenarioSpec(kind="nat-linerate", seed=11, engine="reference")
        ).to_artifact(source="solo")
        for cell in fleets:
            diff = diff_artifacts(solo, cell.artifact)
            assert any("merged views" in note for note in diff.notes)
            assert not diff.diverged
            assert cell.artifact.shards[0] == {
                **solo.shards[0], "digest": cell.artifact.shards[0]["digest"]
            }
