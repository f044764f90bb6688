"""Robustness — the NAT under a randomized fault gauntlet.

The paper deploys FlexSFPs in places where operators cannot easily reach
them, so the module must survive what the field throws at it: link
flaps, bit errors, flash rot, softcore crashes, spontaneous reboots.
This benchmark drives the reference chaos topology (traffic host →
legacy switch → NAT'd FlexSFP → impaired fiber, with a fleet controller
on an impaired management link) through every named fault plan and
reports recovery time, packets lost, and the fraction of damage
incidents the module healed by itself (watchdog + golden fallback)
versus needing a fleet re-deploy.

Determinism is part of the contract: the same root seed must reproduce
the same schedule *and* the same recovery stats, which the benchmark
verifies by running one plan twice.  Each plan runs as ``flexsfp run
--scenario chaos --plan NAME --seed 11 --shards 1`` does, so a row here is
the same run as that command's shard and the record's ``chaos:NAME`` cell
at that root seed; the shard plays the plan drawn at its own seed.
"""

from common import fmt_pct, report
from repro.faults import NAMED_PLANS
from repro.obs.scenario import ScenarioSpec
from repro.parallel import run_sharded

SEED = 11
PLANS = ("smoke", "linkstorm", "flashstorm", "crashloop", "brownout", "full")


def gauntlet(plan: str):
    """One plan's shard at the root seed: its seed and its summary."""
    (shard,) = run_sharded(ScenarioSpec(kind="chaos", fault_plan=plan, seed=SEED)).shards
    return shard.seed, shard.summary


def compute_all():
    results = [gauntlet(name) for name in PLANS]
    rerun = gauntlet(PLANS[0])
    return results, rerun


def test_chaos_gauntlet():
    results, rerun = compute_all()
    report(
        "Chaos gauntlet: NAT'd FlexSFP under named fault plans "
        f"(root seed={SEED}, 1.5 s runs)",
        (
            "plan",
            "faults",
            "lost",
            "loss %",
            "incidents",
            "repairs",
            "self-healed",
            "recover ms",
            "healthy",
        ),
        [
            (
                r["plan"],
                r["faults_applied"],
                r["packets_lost"],
                fmt_pct(r["loss_fraction"]),
                r["incidents"],
                r["repairs"],
                fmt_pct(r["self_healed_fraction"]),
                f"{r['recovery_time_s'] * 1e3:.1f}",
                r["healthy_at_end"],
            )
            for _, r in results
        ],
    )
    assert set(PLANS) <= set(NAMED_PLANS)
    # Same seed, same plan → byte-identical schedule and recovery stats.
    assert rerun == results[0]
    for seed, r in results:
        assert r["faults_applied"] == len(NAMED_PLANS[r["plan"]](seed))
        # Every gauntlet ends with the module healthy and forwarding:
        # the self-healing story is recovery, not mere survival.
        assert r["healthy_at_end"], r["plan"]
        assert not r["degraded_at_end"], r["plan"]
        assert r["packets_received"] > 0, r["plan"]
        assert r["loss_fraction"] < 0.5, r["plan"]
    by_name = {r["plan"]: r for _, r in results}
    # The brownout rots the golden image: not self-healable, the fleet
    # controller must re-deploy (exactly the repair path under test).
    assert by_name["brownout"]["repairs"] >= 1
    assert by_name["brownout"]["self_healed_fraction"] < 1.0
    assert by_name["brownout"]["failed_boots"] >= 1
    # Crash-only plans are fully self-healed by the hardware watchdog.
    assert by_name["crashloop"]["repairs"] == 0
    assert by_name["crashloop"]["self_healed_fraction"] == 1.0
