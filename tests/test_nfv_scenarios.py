"""The NFV scenario kinds: cross-engine identity, churn, diff classing.

``nfv-chain`` and ``tenant-churn`` are the acceptance scenarios for
multi-tenant chaining: the per-tenant digests must be bit-identical
across the reference and compiled engines, and a mid-run
partial reconfiguration must leave the surviving tenant's digest equal
to the churn-free run's.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.artifact import artifact_from_scenario_run, diff_artifacts
from repro.artifact.diff import DiffKind
from repro.engine import ENGINES
from repro.obs.scenario import (
    _KIND_TRAFFIC,
    TENANT_CHURN_APP,
    ScenarioSpec,
    TrafficProfile,
)

# Short profiles keep the four scenario runs inside the tier-1 budget
# while still crossing the churn window (churn fires at duration/4).
CHAIN_TRAFFIC = TrafficProfile(rate_bps=20e6, frame_len=256, duration_s=0.2)


def run_kind(kind: str, engine: str, traffic=CHAIN_TRAFFIC, **kwargs):
    return ScenarioSpec(
        kind=kind, engine=engine, seed=3, traffic=traffic, **kwargs
    ).resolved().run()


@pytest.fixture(scope="module")
def chain_runs():
    return {engine: run_kind("nfv-chain", engine) for engine in ENGINES}


@pytest.fixture(scope="module")
def churn_runs():
    return {engine: run_kind("tenant-churn", engine) for engine in ENGINES}


class TestCrossEngineIdentity:
    def test_chain_semantic_digests_agree(self, chain_runs):
        artifacts = {
            engine: artifact_from_scenario_run(run, source="test")
            for engine, run in chain_runs.items()
        }
        digests = {a.shards[0]["semantic_digest"] for a in artifacts.values()}
        assert len(digests) == 1, "engines disagree on nfv-chain"

    def test_churn_semantic_digests_agree(self, churn_runs):
        artifacts = {
            engine: artifact_from_scenario_run(run, source="test")
            for engine, run in churn_runs.items()
        }
        digests = {a.shards[0]["semantic_digest"] for a in artifacts.values()}
        assert len(digests) == 1, "engines disagree on tenant-churn"

    def test_per_tenant_digests_agree_across_engines(self, chain_runs):
        per_engine = [run.summary["tenant_digests"] for run in chain_runs.values()]
        assert all(d == per_engine[0] for d in per_engine[1:])
        assert set(per_engine[0]) == {"scrub", "telemetry"}

    def test_diff_between_engines_is_timing_only(self, chain_runs):
        reference = artifact_from_scenario_run(
            chain_runs["reference"], source="test"
        )
        other = artifact_from_scenario_run(chain_runs["compiled"], source="test")
        diff = diff_artifacts(reference, other)
        assert not diff.diverged, [e.to_dict() for e in diff.semantic_entries]


class TestTenantChurn:
    def test_churn_reprograms_exactly_one_slot(self, churn_runs):
        for run in churn_runs.values():
            churn = run.summary["churn"]
            assert churn["tenant"] == "scrub"
            assert churn["app_after"] == TENANT_CHURN_APP
            assert churn["reboots"] == 1
            assert churn["downtime_drops"] > 0
            assert churn["survivors"] == ["telemetry"]

    def test_survivor_digest_unchanged_by_churn(self, churn_runs):
        """The acceptance gate: the surviving tenant's semantic digest is
        the same whether or not its neighbour was reprogrammed mid-run."""
        churn_free = run_kind("nfv-chain", "reference")
        churned = churn_runs["reference"]
        assert (
            churned.summary["tenant_digests"]["telemetry"]
            == churn_free.summary["tenant_digests"]["telemetry"]
        )
        # The churned tenant's digest must move: it dropped frames while
        # dark and came back as a different app.
        assert (
            churned.summary["tenant_digests"]["scrub"]
            != churn_free.summary["tenant_digests"]["scrub"]
        )

    def test_all_tenants_saw_traffic(self, chain_runs):
        steered = chain_runs["reference"].summary["steered"]
        assert steered["scrub"]["packets"] > 0
        assert steered["telemetry"]["packets"] > 0


class TestDeploymentKnobsAndDiff:
    def test_artifact_records_resolved_deployment(self, chain_runs):
        artifact = artifact_from_scenario_run(
            chain_runs["reference"], source="test"
        )
        deployment = artifact.knobs["deployment"]
        names = [tenant["name"] for tenant in deployment["tenants"]]
        assert names == ["scrub", "telemetry"]
        assert deployment["tenants"][0]["match"] == {"udp_dport": 9099}

    def test_tenant_set_mismatch_is_semantic(self, chain_runs):
        artifact = artifact_from_scenario_run(
            chain_runs["reference"], source="test"
        )
        knobs = dict(artifact.knobs)
        deployment = {
            "tenants": [
                dict(t, name="intruder") if t["name"] == "scrub" else dict(t)
                for t in knobs["deployment"]["tenants"]
            ]
        }
        knobs["deployment"] = deployment
        other = replace(artifact, knobs=knobs)
        diff = diff_artifacts(artifact, other)
        assert diff.diverged
        entry = next(
            e for e in diff.entries if e.kind is DiffKind.TENANT_SET
        )
        assert entry.name == "knobs.deployment.tenants"
        assert entry.semantic

    def test_tenant_field_drift_is_semantic(self, chain_runs):
        artifact = artifact_from_scenario_run(
            chain_runs["reference"], source="test"
        )
        knobs = dict(artifact.knobs)
        knobs["deployment"] = {
            "tenants": [
                dict(t, share=0.25) if t["name"] == "scrub" else dict(t)
                for t in knobs["deployment"]["tenants"]
            ]
        }
        diff = diff_artifacts(artifact, replace(artifact, knobs=knobs))
        semantic = [
            e for e in diff.semantic_entries if e.kind is DiffKind.TENANT_SET
        ]
        assert any("share" in e.name for e in semantic)

    def test_module_tier_is_the_only_engine_echo(self, chain_runs):
        # The module's tier is every slot's tier: neither the knob block
        # nor the registry carries a per-tenant engine.
        for engine, run in chain_runs.items():
            artifact = artifact_from_scenario_run(run, source="test")
            assert artifact.knobs["engine"] == engine
            for tenant in artifact.knobs["deployment"]["tenants"]:
                assert set(tenant) == {"name", "app", "match", "share"}
            assert not [name for name in run.metrics() if name.endswith(".engine")]


class TestSpecSurface:
    def test_tenants_rejected_on_non_nfv_kinds(self):
        tenants = ({"name": "only", "app": "passthrough"},)
        with pytest.raises(Exception, match="tenants"):
            ScenarioSpec(kind="nat-linerate", tenants=tenants).validate()

    def test_nfv_kind_resolves_default_tenants(self):
        resolved = ScenarioSpec(kind="nfv-chain").resolved()
        names = [tenant["name"] for tenant in resolved.tenants]
        assert names == ["scrub", "telemetry"]

    def test_tenant_churn_traffic_profile_registered(self):
        assert _KIND_TRAFFIC["tenant-churn"].duration_s > 0

    def test_round_trip_with_tenants(self):
        spec = ScenarioSpec(kind="nfv-chain").resolved()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
