"""The five benchmark workloads, their identities and their correctness checks.

Each workload is one closed-loop batch job of fixed simulated size: the
number reported for it is host time for that fixed simulated work.  The
"why" of each one lives in ``BENCHMARK.json`` and the README; this file
holds what runs and what must be true of the result.

The jobs are sized to take 0.3 to 0.5 s of host time each (the CLI one
about 1.2 s) and are repeated many times, not 3 s each and repeated five
times: see ``calibrate.py`` for why only short repeats can be timed
steadily here.

``--seed`` becomes ``ScenarioSpec.seed`` (chaos fault jitter, shard-seed
derivation, the fleet controller's retry seed).  The CBR workloads'
offered load does not depend on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Engine tiers a workload may name (ROADMAP item 3 deletes ``batched``).
TIERS = ("reference", "compiled")
#: ``flexsfp run`` runs one shard in-process, so two shards on two workers
#: is the smallest campaign that forks, supervises and merges.
FLEET_SHARDS = 2
FLEET_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    engine: str
    rate_bps: float
    frame_len: int
    duration_s: float
    fault_plan: str | None = None
    #: Runs as a ``python -m repro.cli run`` subprocess, not in-process.
    cli: bool = False

    def spec(self, seed: int, scale: float = 1.0, engine: str | None = None):
        """The scenario at ``scale`` times the traffic duration."""
        from repro.obs.scenario import ScenarioSpec, TrafficProfile

        return ScenarioSpec(
            kind=self.kind,
            engine=engine or self.engine,
            fault_plan=self.fault_plan,
            seed=seed,
            traffic=TrafficProfile(
                self.rate_bps, self.frame_len, self.duration_s * scale
            ),
        )

    @property
    def processes(self) -> int:
        """How many processes the workload keeps busy at once."""
        return FLEET_WORKERS if self.cli else 1

    def fleet_spec(self, seed: int, shards: int = FLEET_SHARDS):
        """What ``flexsfp run --scenario fleet-upgrade`` builds from its flags."""
        from repro.obs.scenario import ScenarioSpec

        return ScenarioSpec(
            kind=self.kind, engine=self.engine, seed=seed, shards=shards
        )

    def cli_command(self, python: str, seed: int, out: str) -> list[str]:
        return [
            python, "-m", "repro.cli", "run",
            "--scenario", self.kind,
            "--shards", str(FLEET_SHARDS),
            "--workers", str(FLEET_WORKERS),
            "--start-method", "fork",
            "--engine", self.engine,
            "--seed", str(seed),
            "--out", out,
            "--json",
        ]  # fmt: skip


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # 29,762 / 7,441 / 14,881 frames at 14.88 Mpps.
        Workload("nat-linerate-fused", "nat-linerate", "compiled", 10e9, 60, 2e-3),
        Workload("nat-linerate-perframe", "nat-linerate", "reference", 10e9, 60, 0.5e-3),
        Workload("nfv-chain-mix", "nfv-chain", "compiled", 10e9, 60, 1e-3),
        # The whole 1.5 s fault schedule and its 60 health probes, under a
        # thin 3,499-frame data stream.
        Workload("chaos-smoke", "chaos", "compiled", 10e6, 512, 1.5, fault_plan="smoke"),
        # Traffic is the kind's default (50 Mb/s, 512 B, 0.5 s per shard):
        # ``flexsfp run`` has no flag for it, nor does ``--smoke`` shrink it.
        Workload("fleet-upgrade-cli", "fleet-upgrade", "compiled", 50e6, 512, 0.5, cli=True),
    )
}


# ----------------------------------------------------------------------
# Reading a run's registry from outside
# ----------------------------------------------------------------------
def total(metrics: dict, suffix: str) -> float:
    """Sum of every numeric metric whose dotted name ends with ``suffix``."""
    return sum(
        value
        for name, value in metrics.items()
        if name.endswith(suffix) and isinstance(value, (int, float))
        and not isinstance(value, bool)
    )  # fmt: skip


def semantic_digest(metrics: dict, summary: dict, histograms: dict) -> str:
    from repro.artifact.diff import semantic_shard_digest

    return semantic_shard_digest(metrics, summary, histograms)


def combined_digest(digests) -> str:
    """One digest for a sharded run: SHA-256 over the shard digests in order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def identities(workload: Workload, metrics: dict, scale: float) -> dict:
    """Simulated-time results a simulator-speed change must leave identical."""
    offered = metrics.get("host.tx.packets", 0) + metrics.get("host.drops.packets", 0)
    delivered = metrics.get("fiber.rx.packets", metrics.get("sink.rx.packets", 0))
    # A CLI run is not traffic-scaled: each shard offers the kind's full
    # default duration.
    duration = workload.duration_s * (1.0 if workload.cli else scale)
    return {
        "frames_offered": int(offered),
        "sim.delivered_pps": delivered / duration,
        "sim.loss_share": 1.0 - delivered / offered if offered else 0.0,
    }


# ----------------------------------------------------------------------
# Correctness checks (each returns a list of failure strings)
# ----------------------------------------------------------------------
def conservation_failures(metrics: dict, summary: dict) -> list[str]:
    """Conservation laws read from the registry, where the topology has the term."""
    failures: list[str] = []

    def equal(what: str, left, right) -> None:
        if left != right:
            failures.append(f"conservation: {what}: {left} != {right}")

    pairs = (
        ("host.tx == edge.rx", "host.tx.packets", "module0.edge.rx.packets"),
        ("line.tx == fiber.rx", "module0.line.tx.packets", "fiber.rx.packets"),
    )
    for what, left, right in pairs:
        if left in metrics and right in metrics:
            equal(what, metrics[left], metrics[right])
    for name, processed in metrics.items():
        if name.endswith(".processed.packets"):
            prefix = name[: -len("processed.packets")] + "verdicts."
            verdicts = sum(v for k, v in metrics.items() if k.startswith(prefix))
            equal(f"{name} == sum(verdicts)", processed, verdicts)
    steered = [v for k, v in metrics.items() if k.endswith(".steered.packets")]
    if steered:
        equal("sum(steered) == edge.rx", sum(steered), metrics["module0.edge.rx.packets"])
    if "packets_sent" in summary:
        # A duplication fault delivers a frame twice: the sink can then
        # receive more than was sent, and nothing counts as lost.
        sent, received = summary["packets_sent"], summary["packets_received"]
        equal(
            "gauntlet sent == received + lost",
            max(sent, received),
            received + summary["packets_lost"],
        )
    return failures


def workload_failures(workload: Workload, metrics: dict, summary: dict) -> list[str]:
    """Conservation plus what this workload in particular promises."""
    failures = conservation_failures(metrics, summary)
    if workload.kind == "nat-linerate":
        # The paper's §5.1 claim: 14.88 Mpps of 60 B frames, zero loss.
        offered = metrics["host.tx.packets"]
        if metrics["fiber.rx.packets"] != offered or not offered:
            failures.append(
                f"line rate: delivered {metrics['fiber.rx.packets']} of {offered}"
            )
        dropped = total(metrics, "drops.packets")
        if dropped:
            failures.append(f"line rate: {dropped} frames dropped")
    return failures


def artifact_failures(document: dict) -> list[str]:
    """What one ``flexsfp run --scenario fleet-upgrade`` artifact must show."""
    from repro.obs.scenario import FLEET_UPGRADE_MODULES

    failures = conservation_failures(document["metrics"], {})
    if not document["completeness"]["ok"]:
        failures.append(f"completeness: {document['completeness']}")
    for shard in document["shards"]:
        summary = shard["summary"]
        if not summary["ok"] or len(summary["upgraded"]) != FLEET_UPGRADE_MODULES:
            failures.append(
                f"shard {shard['index']}: upgraded {summary['upgraded']}, "
                f"failed {summary['failed']}"
            )
    return failures
