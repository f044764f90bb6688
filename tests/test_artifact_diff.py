"""Unit tests for ``diff_artifacts`` classification rules."""

from __future__ import annotations

import pytest

from repro.artifact import (
    DiffKind,
    diff_artifacts,
    is_semantic_metric,
    semantic_metrics,
    semantic_shard_digest,
)


def make_doc(**overrides) -> dict:
    """A minimal, valid flexsfp.run/1 payload for targeted diffs."""
    base = {
        "schema": "flexsfp.run/1",
        "source": "test",
        "spec": {"kind": "nat-linerate", "seed": 1, "shards": 1},
        "spec_digest": "d" * 64,
        "seed": 1,
        "knobs": {"engine": "reference", "shards": 1},
        "metrics": {"fiber.rx.packets": 100, "module0.ppe.nat.drops": 0},
        "histograms": {
            "module0.ppe.nat.latency_ns": {"bounds": [1, 2], "counts": [5, 0]}
        },
        "shards": [
            {
                "index": 0,
                "seed": 1,
                "digest": "a" * 64,
                "semantic_digest": semantic_shard_digest(
                    {"fiber.rx.packets": 100}, {}, {}
                ),
                "summary": {},
            }
        ],
        "completeness": {
            "ok": True,
            "shards": 1,
            "completed": 1,
            "failed": [],
            "failed_indices": [],
            "resumed": [],
            "retries": 0,
        },
        "summary": {},
        "findings": [],
        "timings": {"wall_s": 0.5},
        "environment": {"python": "3.12"},
        "supervisor": {"completed": 1},
    }
    base.update(overrides)
    return base


class TestSemanticClassification:
    @pytest.mark.parametrize(
        "name",
        [
            "fiber.rx.packets",
            "module0.ppe.nat.drops",
            "module0.ppe.nat.processed.packets",
            "fleet.repairs",
            "module0.tenant.compiled.ppe.sanitizer.verdicts.drop",
            "module0.tenant.flow_cache.steered.packets",
            "module0.tenant.fastpath_hits.ppe.int.processed.packets",
        ],
    )
    def test_semantic_names(self, name):
        assert is_semantic_metric(name)

    def test_a_tenant_named_like_a_strategy_family_keeps_its_leaves(self):
        """The family segment counts only directly under the PPE's app
        segment: a tenant named ``compiled`` keeps every leaf, and its
        digest moves with its drops."""
        from repro.nfv import default_nfv_tenants
        from repro.obs.scenario import ScenarioSpec, _tenant_digests

        tenants = [dict(tenant) for tenant in default_nfv_tenants()]
        tenants[0]["name"] = "compiled"
        run = ScenarioSpec(
            kind="nfv-chain", tenants=tuple(tenants), engine="reference"
        ).run()
        metrics = run.metrics()
        prefix = "module0.tenant.compiled."
        leaves = [name for name in metrics if name.startswith(prefix)]
        assert len(leaves) == 26
        assert all(is_semantic_metric(name) for name in leaves)
        drops = "module0.tenant.compiled.verdict_drops.packets"
        assert metrics[drops] > 0
        digests = run.summary["tenant_digests"]
        moved = _tenant_digests(
            run.modules[0], {**metrics, drops: metrics[drops] + 1}, run.histograms()
        )
        assert moved["compiled"] != digests["compiled"]
        assert moved["telemetry"] == digests["telemetry"]

    @pytest.mark.parametrize(
        "name",
        [
            "sim.events",
            "wall_s",
            "sim.profile.Simulator.wall_s",
            "fleet.supervisor.retries",
            "module0.ppe.nat.flow_cache.hits",
            "module0.ppe.nat.fastpath_hits.packets",
            "module0.ppe.nat.compiled.deopt_frames",
            "module0.tenant.scrub.ppe.sanitizer.compiled.deopt_frames",
        ],
    )
    def test_nonsemantic_names(self, name):
        assert not is_semantic_metric(name)

    def test_semantic_metrics_filters_and_sorts(self):
        subset = semantic_metrics(
            {"b.drops": 1, "sim.events": 9, "a.packets": 2}
        )
        assert list(subset) == ["a.packets", "b.drops"]

    def test_semantic_shard_digest_ignores_engine_noise(self):
        clean = {"fiber.rx.packets": 100}
        noisy = {
            "fiber.rx.packets": 100,
            "module0.ppe.nat.flow_cache.hits": 55,
            "sim.events": 1234,
        }
        assert semantic_shard_digest(clean, {}, {}) == semantic_shard_digest(
            noisy, {}, {}
        )
        changed = {"fiber.rx.packets": 101}
        assert semantic_shard_digest(clean, {}, {}) != semantic_shard_digest(
            changed, {}, {}
        )


class TestDiffKinds:
    def test_identical(self):
        doc = make_doc()
        diff = diff_artifacts(doc, dict(doc))
        assert diff.identical and diff.verdict == "identical"
        assert not diff.diverged

    def test_metric_value_divergence(self):
        a = make_doc()
        b = make_doc(metrics={"fiber.rx.packets": 99, "module0.ppe.nat.drops": 0})
        diff = diff_artifacts(a, b)
        assert diff.diverged and diff.verdict == "diverged"
        (entry,) = diff.semantic_entries
        assert entry.kind is DiffKind.METRIC_VALUE
        assert entry.name == "metrics.fiber.rx.packets"
        assert (entry.a, entry.b) == (100, 99)

    def test_metric_set_divergence(self):
        extra = {
            "fiber.rx.packets": 100,
            "module0.ppe.nat.drops": 0,
            "module0.ppe.nat.mutations": 7,
        }
        diff = diff_artifacts(make_doc(), make_doc(metrics=extra))
        (entry,) = diff.semantic_entries
        assert entry.kind is DiffKind.METRIC_SET
        assert entry.name == "metrics.module0.ppe.nat.mutations"
        assert entry.a is None and entry.b == 7

    def test_nonsemantic_metric_set_is_timing_only(self):
        extra = {
            "fiber.rx.packets": 100,
            "module0.ppe.nat.drops": 0,
            "module0.ppe.nat.flow_cache.hits": 55,
        }
        diff = diff_artifacts(make_doc(), make_doc(metrics=extra))
        assert not diff.diverged and diff.verdict == "timing-only"
        (entry,) = diff.entries
        assert entry.kind is DiffKind.TIMING_ONLY

    def test_histogram_divergence_is_semantic(self):
        b = make_doc(
            histograms={
                "module0.ppe.nat.latency_ns": {"bounds": [1, 2], "counts": [4, 1]}
            }
        )
        diff = diff_artifacts(make_doc(), b)
        assert diff.diverged
        assert diff.semantic_entries[0].name.startswith("histograms.")

    def test_completeness_divergence(self):
        b = make_doc(
            completeness={
                "ok": False,
                "shards": 1,
                "completed": 0,
                "failed": [{"index": 0}],
                "failed_indices": [0],
                "resumed": [],
                "retries": 3,
            }
        )
        diff = diff_artifacts(make_doc(), b)
        kinds = {entry.kind for entry in diff.semantic_entries}
        assert DiffKind.COMPLETENESS in kinds

    def test_retries_alone_do_not_diverge(self):
        b = make_doc(
            completeness={
                "ok": True,
                "shards": 1,
                "completed": 1,
                "failed": [],
                "failed_indices": [],
                "resumed": [0],
                "retries": 2,
            }
        )
        assert not diff_artifacts(make_doc(), b).diverged

    def test_timings_and_environment_are_timing_only(self):
        b = make_doc(
            timings={"wall_s": 99.0},
            environment={"python": "3.10"},
            supervisor={"completed": 1, "retried": 4},
        )
        diff = diff_artifacts(make_doc(), b)
        assert not diff.diverged
        assert {entry.name for entry in diff.entries} == {
            "timings", "environment", "supervisor",
        }

    def test_shard_seed_mismatch_is_semantic(self):
        b = make_doc()
        b["shards"] = [dict(b["shards"][0], seed=2)]
        diff = diff_artifacts(make_doc(), b)
        assert diff.diverged
        assert diff.semantic_entries[0].name == "shards[0].seed"

    def test_counts_account_for_every_entry(self):
        b = make_doc(
            metrics={"fiber.rx.packets": 99, "module0.ppe.nat.drops": 0},
            timings={"wall_s": 9.0},
        )
        diff = diff_artifacts(make_doc(), b)
        counts = diff.counts()
        assert sum(counts.values()) == len(diff.entries)
        assert counts["metric-value"] == 1
        assert counts["timing-only"] == 1


class TestCrossShardCount:
    def _shard(self, index: int, packets: int) -> dict:
        return {
            "index": index,
            "seed": 100 + index,
            "digest": f"{index:064x}",
            "semantic_digest": semantic_shard_digest(
                {"fiber.rx.packets": packets}, {}, {}
            ),
            "summary": {},
        }

    def test_prefix_shards_compare_merged_views_skip(self):
        small = make_doc(shards=[self._shard(0, 10)])
        large = make_doc(
            metrics={"fiber.rx.packets": 200, "module0.ppe.nat.drops": 0},
            shards=[self._shard(0, 10), self._shard(1, 11)],
        )
        large["spec"] = dict(large["spec"], shards=2)
        large["completeness"] = dict(
            large["completeness"], shards=2, completed=2
        )
        diff = diff_artifacts(small, large)
        # Different shard counts: merged aggregates differ by construction
        # but the common shard agrees, so no semantic divergence.
        assert not diff.diverged
        assert any("merged views not compared" in note for note in diff.notes)

    def test_common_shard_divergence_detected_across_counts(self):
        small = make_doc(shards=[self._shard(0, 10)])
        large = make_doc(
            shards=[self._shard(0, 999), self._shard(1, 11)],
        )
        diff = diff_artifacts(small, large)
        assert diff.diverged
        assert any(
            entry.name == "shards[0].semantic_digest"
            for entry in diff.semantic_entries
        )


class TestDiffSerialization:
    def test_to_dict_round_trips_through_json(self):
        import json

        b = make_doc(metrics={"fiber.rx.packets": 99, "module0.ppe.nat.drops": 0})
        diff = diff_artifacts(make_doc(), b)
        payload = json.loads(json.dumps(diff.to_dict(), sort_keys=True))
        assert payload["verdict"] == "diverged"
        assert payload["diverged"] is True
        assert len(payload["entries"]) == len(diff.entries)
