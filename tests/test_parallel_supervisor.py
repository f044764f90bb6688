"""The shard supervisor under worker chaos.

The acceptance bar: with deterministically injected worker kills,
hangs, stalls, corrupt results, and raises, a supervised run completes
and its merged metrics + per-shard digests are bit-identical to an
undisturbed run; exhausted retries degrade into an explicit
completeness block; ``resume`` re-runs only the missing shards and
reproduces the same digests.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.faults import WorkerFault, WorkerFaultPlan
from repro.obs import ScenarioSpec, TrafficProfile
from repro.parallel import (
    ShardError,
    SupervisorPolicy,
    SupervisorTelemetry,
    load_journal,
    merge_metrics,
    run_shard_safe,
    run_sharded,
    shard_spec,
)

SPEC = ScenarioSpec(
    kind="nat-linerate", seed=11, shards=4,
    traffic=TrafficProfile(duration_s=0.1e-3),
)

# Crash-style faults fail fast; keep the backoff tight and the
# heartbeat/deadline detectors effectively out of the way.
FAST = SupervisorPolicy(
    max_retries=2, backoff_s=0.01, heartbeat_s=0.05,
    heartbeat_misses=200, poll_s=0.02,
)


@pytest.fixture(scope="module")
def baseline():
    """The undisturbed sequential run every chaos run must reproduce."""
    return run_sharded(SPEC, workers=1)


def assert_bit_identical(result, baseline):
    assert result.ok
    assert result.digests == baseline.digests
    assert result.merged_metrics == baseline.merged_metrics
    assert result.merged_histograms == baseline.merged_histograms


class TestChaosBitIdentity:
    def test_kill_raise_corrupt_all_recover(self, baseline):
        plan = WorkerFaultPlan.scripted({
            (0, 1): "worker_kill",
            (1, 1): "worker_raise",
            (2, 1): "worker_corrupt",
        })
        result = run_sharded(SPEC, workers=2, policy=FAST, chaos=plan)
        assert_bit_identical(result, baseline)
        assert result.supervisor["crashes"] == 1
        assert result.supervisor["worker_errors"] == 1
        assert result.supervisor["corrupt_results"] == 1
        assert result.supervisor["retries"] == 3
        assert result.supervisor["launched"] == SPEC.shards + 3
        assert result.completeness.retries == 3

    def test_repeated_kills_within_budget_recover(self, baseline):
        plan = WorkerFaultPlan.scripted({
            (3, 1): "worker_kill",
            (3, 2): "worker_kill",
        })
        result = run_sharded(SPEC, workers=2, policy=FAST, chaos=plan)
        assert_bit_identical(result, baseline)
        assert result.supervisor["crashes"] == 2

    def test_hung_worker_hits_deadline(self, baseline):
        plan = WorkerFaultPlan.scripted({(1, 1): "worker_hang"})
        policy = dataclasses.replace(FAST, shard_timeout_s=0.6, max_retries=1)
        result = run_sharded(SPEC, workers=2, policy=policy, chaos=plan)
        assert_bit_identical(result, baseline)
        assert result.supervisor["stragglers"] == 1
        assert result.supervisor["hangs"] == 0

    def test_stalled_worker_hits_heartbeat_detector(self, baseline):
        plan = WorkerFaultPlan.scripted({(2, 1): "worker_stall"})
        # Generous deadline: only the missing heartbeats can catch this.
        policy = dataclasses.replace(
            FAST, shard_timeout_s=30.0, heartbeat_misses=6, max_retries=1
        )
        result = run_sharded(SPEC, workers=2, policy=policy, chaos=plan)
        assert_bit_identical(result, baseline)
        assert result.supervisor["hangs"] == 1
        assert result.supervisor["stragglers"] == 0

    def test_generated_plan_recovers_under_spawn(self, baseline):
        plan = WorkerFaultPlan.generate(seed=5, shards=SPEC.shards, count=2)
        result = run_sharded(
            SPEC, workers=2, start_method="spawn", policy=FAST, chaos=plan
        )
        assert_bit_identical(result, baseline)
        assert result.supervisor["retries"] == len(plan)


class TestGracefulDegradation:
    EXHAUST = WorkerFaultPlan.scripted({
        (1, 1): "worker_kill",
        (1, 2): "worker_kill",
        (1, 3): "worker_kill",
    })

    def test_exhausted_retries_degrade_to_partial(self, baseline):
        result = run_sharded(SPEC, workers=2, policy=FAST, chaos=self.EXHAUST)
        assert not result.ok
        completeness = result.completeness
        assert completeness.completed == SPEC.shards - 1
        assert completeness.failed_indices == (1,)
        failure = completeness.failed[0]
        assert failure.attempts == 3
        assert failure.reasons == ("crash", "crash", "crash")
        assert failure.seed == shard_spec(SPEC.resolved(), 1).seed
        assert result.supervisor["failed"] == 1
        # The partial merge covers exactly the completed shards.
        survivors = [s for s in baseline.shards if s.index != 1]
        assert result.merged_metrics == merge_metrics(
            s.metrics for s in survivors
        )
        assert result.digests == tuple(s.digest for s in survivors)

    def test_partial_result_is_explicit_in_artifact(self):
        result = run_sharded(SPEC, workers=2, policy=FAST, chaos=self.EXHAUST)
        block = result.to_dict()["completeness"]
        assert block["ok"] is False
        assert block["failed_indices"] == [1]
        assert block["failed"][0]["reasons"] == ["crash", "crash", "crash"]

    def test_exhausted_raise_carries_traceback(self):
        plan = WorkerFaultPlan.scripted({(0, 1): "worker_raise"})
        policy = dataclasses.replace(FAST, max_retries=0)
        result = run_sharded(SPEC, workers=2, policy=policy, chaos=plan)
        assert not result.ok
        failure = result.completeness.failed[0]
        assert failure.reasons == ("exception",)
        assert "injected worker_raise" in failure.last_error
        assert "RuntimeError" in failure.last_error


class TestStructuredErrors:
    def test_run_shard_safe_reports_shard_seed_and_traceback(self):
        outcome = run_shard_safe(
            (SPEC.resolved(), 2), attempt=3, inject=RuntimeError("boom")
        )
        assert isinstance(outcome, ShardError)
        assert outcome.index == 2
        assert outcome.seed == shard_spec(SPEC.resolved(), 2).seed
        assert outcome.attempt == 3
        assert outcome.kind == "exception"
        assert outcome.message == "RuntimeError: boom"
        assert "RuntimeError: boom" in outcome.traceback
        assert outcome.to_dict()["index"] == 2

    def test_run_shard_safe_passes_results_through(self):
        outcome = run_shard_safe((SPEC.resolved(), 0))
        assert not isinstance(outcome, ShardError)
        assert outcome.index == 0


class TestCheckpointResume:
    def test_resume_runs_only_missing_shards(self, tmp_path, baseline):
        journal = tmp_path / "campaign.jsonl"
        first = run_sharded(
            SPEC, workers=2, policy=FAST,
            checkpoint=journal, chaos=TestGracefulDegradation.EXHAUST,
        )
        assert not first.ok
        _, completed = load_journal(journal)
        assert sorted(completed) == [0, 2, 3]

        second = run_sharded(SPEC, workers=2, policy=FAST, resume=journal)
        assert_bit_identical(second, baseline)
        assert second.completeness.resumed == (0, 2, 3)
        assert second.supervisor["resumed"] == 3
        assert second.supervisor["launched"] == 1  # only the missing shard
        _, completed = load_journal(journal)
        assert sorted(completed) == [0, 1, 2, 3]

    def test_resume_can_redirect_checkpoint(self, tmp_path, baseline):
        old = tmp_path / "old.jsonl"
        run_sharded(
            SPEC, workers=1, policy=FAST, checkpoint=old,
            chaos=WorkerFaultPlan.scripted({
                (0, 1): "worker_kill", (0, 2): "worker_kill",
                (0, 3): "worker_kill",
            }),
        )
        new = tmp_path / "new.jsonl"
        result = run_sharded(
            SPEC, workers=1, policy=FAST, resume=old, checkpoint=new
        )
        assert_bit_identical(result, baseline)
        _, completed = load_journal(new)
        assert sorted(completed) == [0, 1, 2, 3]
        _, old_completed = load_journal(old)
        assert 0 not in old_completed  # old journal left as it was

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_sharded(SPEC, workers=1, checkpoint=journal)
        other = dataclasses.replace(SPEC, seed=SPEC.seed + 1)
        with pytest.raises(ConfigError, match="different spec"):
            run_sharded(other, workers=1, resume=journal)

    def test_full_checkpoint_resume_is_a_noop_run(self, tmp_path, baseline):
        journal = tmp_path / "campaign.jsonl"
        run_sharded(SPEC, workers=1, checkpoint=journal)
        result = run_sharded(SPEC, workers=2, resume=journal)
        assert_bit_identical(result, baseline)
        assert result.supervisor["launched"] == 0
        assert result.completeness.resumed == (0, 1, 2, 3)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError, match="timeout"):
            SupervisorPolicy(shard_timeout_s=0.0)
        with pytest.raises(ConfigError, match="max_retries"):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ConfigError, match="backoff"):
            SupervisorPolicy(backoff_s=-0.1)
        with pytest.raises(ConfigError, match="heartbeat"):
            SupervisorPolicy(heartbeat_s=0.0)

    def test_backoff_is_deterministic_exponential(self):
        policy = SupervisorPolicy(backoff_s=0.1)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_telemetry_snapshot_keys(self):
        telemetry = SupervisorTelemetry()
        telemetry.count_failure("crash")
        telemetry.count_failure("timeout")
        values = telemetry.metric_values()
        assert values["crashes"] == 1
        assert values["stragglers"] == 1
        assert values["hangs"] == 0
        assert set(values) == set(SupervisorTelemetry._FIELDS)


class TestWorkerFaultPlan:
    def test_duplicate_slot_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            WorkerFaultPlan(faults=(
                WorkerFault(shard=0, attempt=1, kind="worker_kill"),
                WorkerFault(shard=0, attempt=1, kind="worker_raise"),
            ))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown worker fault"):
            WorkerFault(shard=0, attempt=1, kind="worker_sing")

    def test_generate_is_seed_deterministic(self):
        one = WorkerFaultPlan.generate(seed=3, shards=8, count=4)
        two = WorkerFaultPlan.generate(seed=3, shards=8, count=4)
        assert one == two
        assert len(one) == 4
        assert one != WorkerFaultPlan.generate(seed=4, shards=8, count=4)

    def test_lookup(self):
        plan = WorkerFaultPlan.scripted({
            (2, 1): "worker_hang", (2, 2): "worker_kill",
        })
        assert plan.fault_for(2, 1).kind == "worker_hang"
        assert plan.fault_for(2, 3) is None
        assert plan.fault_for(0, 1) is None
