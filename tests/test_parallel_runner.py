"""The sharded runner: K workers bit-identical to the sequential fold."""

import os
import time

import pytest

from repro.errors import ConfigError
from repro.obs import ScenarioSpec, TrafficProfile
from repro.parallel import (
    FleetRunResult,
    MergeKind,
    classify,
    run_shard,
    run_sharded,
    shard_spec,
)
from repro.parallel.runner import _pick_start_method

# A fast chaos fleet: seed-dependent (LossyWire draws differ per shard)
# so shard digests are genuinely distinct, yet short enough for CI.
CHAOS = ScenarioSpec(
    kind="chaos",
    seed=7,
    shards=3,
    fault_plan="smoke",
    traffic=TrafficProfile(rate_bps=50e6, frame_len=512, duration_s=0.4),
)
NAT = ScenarioSpec(
    kind="nat-linerate", seed=3, shards=2,
    traffic=TrafficProfile(duration_s=0.1e-3),
)
# The scale-out workload: per-shard work long enough to dominate the
# pool's fork/pickle overhead.
SCALEOUT = ScenarioSpec(
    kind="chaos",
    seed=11,
    shards=8,
    fault_plan="smoke",
    traffic=TrafficProfile(rate_bps=50e6, frame_len=512, duration_s=1.0),
)
SCALEOUT_WORKERS = 4
SPEEDUP_FLOOR = 2.5


@pytest.fixture(scope="module")
def sequential():
    return run_sharded(CHAOS, workers=1)


class TestSequential:
    def test_shape(self, sequential):
        assert isinstance(sequential, FleetRunResult)
        assert sequential.workers == 1
        assert [s.index for s in sequential.shards] == [0, 1, 2]
        assert len(sequential.digests) == 3

    def test_shards_are_distinct_workloads(self, sequential):
        assert len(set(sequential.digests)) == 3
        assert len({s.seed for s in sequential.shards}) == 3

    def test_rerun_is_bit_identical(self, sequential):
        again = run_sharded(CHAOS, workers=1)
        assert again.digests == sequential.digests
        assert again.merged_metrics == sequential.merged_metrics
        assert again.merged_histograms == sequential.merged_histograms

    def test_merged_counters_sum_shards(self, sequential):
        # Every integer counter of the merged view, not a sample of them.
        sums = {
            name: value
            for name, value in sequential.merged_metrics.items()
            if classify(name, value) is MergeKind.SUM
        }
        for name, value in sums.items():
            assert value == sum(s.metrics.get(name, 0) for s in sequential.shards), name
        assert sums["sink.rx.packets"] > 0

    def test_to_dict_round_trips_spec(self, sequential):
        payload = sequential.to_dict()
        assert payload["digests"] == list(sequential.digests)
        rebuilt = ScenarioSpec.from_dict(payload["spec"])
        assert rebuilt == sequential.spec


class TestParallel:
    def test_workers_bit_identical_to_sequential(self, sequential):
        started = time.perf_counter()
        parallel = run_sharded(CHAOS, workers=2)
        assert parallel.wall_s <= time.perf_counter() - started
        assert parallel.workers == 2 and parallel.ok
        # Being supervised costs an undisturbed run no retry.
        assert parallel.supervisor["launched"] == CHAOS.shards
        assert parallel.supervisor["retries"] == 0
        assert parallel.digests == sequential.digests
        assert parallel.merged_metrics == sequential.merged_metrics
        assert parallel.merged_histograms == sequential.merged_histograms
        assert [s.to_dict() for s in parallel.shards] == [
            s.to_dict() for s in sequential.shards
        ]

    def test_spawn_start_method_identical(self, sequential):
        parallel = run_sharded(CHAOS, workers=2, start_method="spawn")
        assert parallel.digests == sequential.digests
        assert parallel.merged_metrics == sequential.merged_metrics

    def test_nat_shards_parallel(self):
        seq = run_sharded(NAT, workers=1)
        par = run_sharded(NAT, workers=2)
        assert par.digests == seq.digests
        assert par.merged_metrics == seq.merged_metrics
        # NAT scenarios are seed-independent by design (test_cli pins
        # their topology), so every shard replays identically.
        assert len(set(seq.digests)) == 1

    def test_four_workers_are_concurrent(self):
        # Bit-identity alone passes if the workers run one after another;
        # shards share nothing, so 4 workers must finish 8 shards >= 2.5x
        # sooner than 1.  Skipped, not weakened, below 4 CPUs.
        cpus = os.cpu_count() or 1
        if cpus < SCALEOUT_WORKERS:
            pytest.skip(
                f"{cpus} CPU(s): a {SCALEOUT_WORKERS}-worker speedup "
                "measurement would measure the scheduler, not the runner"
            )
        seq = run_sharded(SCALEOUT, workers=1)
        par = run_sharded(SCALEOUT, workers=SCALEOUT_WORKERS)
        assert par.digests == seq.digests
        speedup = seq.wall_s / par.wall_s
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x at {SCALEOUT_WORKERS} workers, "
            f"got {speedup:.2f}x"
        )


class TestSpecPlumbing:
    def test_shard_spec_derives_seed_and_collapses_shards(self):
        single = shard_spec(CHAOS, 1)
        assert single.shards == 1
        assert single.seed != CHAOS.seed
        assert shard_spec(CHAOS, 1) == single

    def test_run_shard_matches_direct_run(self):
        result = run_shard((NAT.resolved(), 0))
        direct = shard_spec(NAT.resolved(), 0).run()
        assert result.digest == direct.digest()
        assert result.metrics == direct.metrics()

    def test_env_workers_default(self, monkeypatch):
        # The default is one worker; FLEXSFP_WORKERS (removed in PR 24) is
        # ignored like any unknown variable.
        monkeypatch.setenv("FLEXSFP_WORKERS", "2")
        result = run_sharded(NAT)
        assert result.workers == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            run_sharded(NAT, workers=0)
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            run_sharded(NAT, workers=-3)

    def test_unavailable_start_method_rejected(self):
        with pytest.raises(ConfigError, match="unavailable"):
            _pick_start_method("not-a-method")

    def test_default_start_method_prefers_fork(self, monkeypatch):
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods",
            lambda: ["spawn", "fork", "forkserver"],
        )
        assert _pick_start_method(None) == "fork"

    def test_default_start_method_falls_back_without_fork(self, monkeypatch):
        # Platforms without fork (e.g. Windows) get the first available.
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods", lambda: ["spawn"]
        )
        assert _pick_start_method(None) == "spawn"
        with pytest.raises(ConfigError):
            _pick_start_method("fork")

    def test_resolution_happens_in_parent(self, monkeypatch):
        # Env knobs fold into the spec before fan-out: the resolved spec
        # the workers execute carries concrete values, never None.
        monkeypatch.setenv("FLEXSFP_ENGINE", "compiled")
        result = run_sharded(NAT, workers=1)
        assert result.spec.engine == "compiled"
