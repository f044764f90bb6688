"""The measuring child process: one workload, one pass, one JSON line out.

``run.py`` starts this file in a fresh interpreter with a scrubbed
environment (no ``FLEXSFP_*``, ``PYTHONHASHSEED=0``) and one JSON request
on the command line.  Three passes:

``setup``   import ``repro``, resolve the spec, run it at 1 µs of traffic.
            From the parent starting this process to that point is
            ``setup_s``.
``timed``   warm up at a tenth of the traffic (checking the reference and
            compiled tiers agree while at it), then repeat the workload
            with no wrapper installed for ``seconds`` of wall clock, each
            repeat between two calibration spins (see ``calibrate.py``).
``traced``  the per-layer pass, in ``traced.py``.

A repeat fails if it raises, exits non-zero or fails a check; a failed
repeat contributes no timing.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402

WARMUP_SHARE = 0.1
SETUP_TRAFFIC_S = 1e-6


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------
@dataclass
class Repeat:
    """What one repeat produced: raw timings, the registry, the digest."""

    wall_s: float
    cpu_s: float
    metrics: dict
    summary: dict
    digest: str
    failures: list[str]
    artifact: Path | None = None


def run_inprocess(workload, spec, span=None) -> Repeat:
    """One ``spec.run()``, timed; ``span`` is the trace's root span, if any."""
    gc.collect()
    cpu0, wall0 = process_time(), perf_counter()
    with span or nullcontext():
        run = spec.run()
    wall_s, cpu_s = perf_counter() - wall0, process_time() - cpu0
    metrics, summary = dict(run.metrics()), dict(run.summary)
    return Repeat(
        wall_s,
        cpu_s,
        metrics,
        summary,
        wl.semantic_digest(metrics, summary, run.histograms()),
        wl.workload_failures(workload, metrics, summary),
    )


def run_cli(workload, request, index: int) -> Repeat:
    """The literal ``flexsfp run`` path: interpreter start to artifact on disk."""
    out = Path(request["tmp"]) / f"fleet-{index}.json"
    command = workload.cli_command(sys.executable, request["seed"], str(out))
    cpu0, wall0 = _children_cpu_s(), perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True)
    wall_s, cpu_s = perf_counter() - wall0, _children_cpu_s() - cpu0
    if proc.returncode != 0:
        raise RuntimeError(
            f"flexsfp run exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    document = json.loads(out.read_text())
    return Repeat(
        wall_s,
        cpu_s,
        document["metrics"],
        {},
        wl.combined_digest(s["semantic_digest"] for s in document["shards"]),
        wl.artifact_failures(document),
        artifact=out,
    )


def cli_diff_failures(first: Path, last: Path) -> list[str]:
    """``flexsfp diff`` between two repeats may report timing drift only."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "diff", str(first), str(last), "--json"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return [f"flexsfp diff exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    verdict = json.loads(proc.stdout)["verdict"]
    if verdict not in ("identical", "timing-only"):
        return [f"flexsfp diff between repeats: {verdict}"]
    return []


class Repeats:
    """Runs repeats of one workload and keeps the failure ledger."""

    def __init__(self, workload, request) -> None:
        self.workload = workload
        self.request = request
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.good: list[Repeat] = []

    def one(self, traced_under=None) -> Repeat | None:
        index = self.attempted
        self.attempted += 1
        try:
            if self.workload.cli:
                repeat = run_cli(self.workload, self.request, index)
            else:
                spec = self.workload.spec(self.request["seed"], self.request["scale"])
                span = traced_under.root() if traced_under else None
                repeat = run_inprocess(self.workload, spec, span)
            failures = list(repeat.failures)
        except Exception:  # a repeat that raises is a failed repeat, reported
            repeat, failures = None, [traceback.format_exc(limit=8)]
        if repeat is not None and self.good and repeat.digest != self.good[0].digest:
            failures.append(
                f"semantic digest drifted between repeats: "
                f"{self.good[0].digest[:16]} -> {repeat.digest[:16]}"
            )
        if failures:
            self.fail(f"repeat {index}", failures)
            return None
        self.good.append(repeat)
        return repeat

    def fail(self, where: str, failures: list[str]) -> None:
        self.failed += 1
        self.failures.extend(f"{where}: {f}" for f in failures)

    def ledger(self) -> dict:
        return {
            "runs_attempted": self.attempted,
            "runs_failed": self.failed,
            "failures": self.failures,
        }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def setup_pass(workload, request) -> dict:
    """Everything a run pays before its first frame.

    The parent noted the clock before starting this interpreter; this end
    notes it when the work is done (``perf_counter`` is CLOCK_MONOTONIC on
    Linux, one clock for every process) and then spins once, still warm
    and on the same vCPU, to give that interval its yardstick.
    """
    if workload.cli:
        import repro.cli  # noqa: F401  (the import is the work)

        spec = workload.fleet_spec(request["seed"], shards=1)
    else:
        import repro  # noqa: F401

        spec = workload.spec(request["seed"])
    from repro.obs.scenario import TrafficProfile

    traffic = TrafficProfile(workload.rate_bps, workload.frame_len, SETUP_TRAFFIC_S)
    replace(spec, traffic=traffic).run()
    done_at = perf_counter()
    return {"done_at": done_at, "spin_s": calibrate.spin()[0]}


def warm_up(workload, request, repeats: Repeats) -> None:
    """One tenth of the traffic, in both tiers: their digests must agree."""
    if workload.cli:
        return
    scale = request["scale"] * WARMUP_SHARE
    digests = {}
    for tier in wl.TIERS:
        digests[tier] = run_inprocess(
            workload, workload.spec(request["seed"], scale, engine=tier)
        ).digest
    if len(set(digests.values())) != 1:
        repeats.attempted += 1
        repeats.fail("warm-up", [f"tiers disagree on the semantic digest: {digests}"])


def timed_pass(workload, request) -> dict:
    from repro.artifact.run import environment_fingerprint

    repeats = Repeats(workload, request)
    warm_up(workload, request, repeats)
    samples = []
    least = request["min_repeats"]
    with calibrate.Yardstick(workload.processes) as yardstick:
        deadline = perf_counter() + request["seconds"]
        before = yardstick.measure()
        while repeats.attempted < least or perf_counter() < deadline:
            if repeats.failed and repeats.attempted >= least:
                break  # a broken workload does not get to burn the whole budget
            repeat = repeats.one()
            after = yardstick.measure()
            if repeat is not None:
                samples.append(
                    {
                        "wall_s": calibrate.scaled(repeat.wall_s, before[0], after[0]),
                        "cpu_s": calibrate.scaled(repeat.cpu_s, before[1], after[1]),
                        "raw_wall_s": repeat.wall_s,
                        "raw_cpu_s": repeat.cpu_s,
                        "spin_s": (before[0] + after[0]) / 2.0,
                    }
                )
            before = after
    good = repeats.good
    if workload.cli and len(good) >= 2:
        failures = cli_diff_failures(good[0].artifact, good[-1].artifact)
        if failures:
            repeats.fail("flexsfp diff", failures)
    result = repeats.ledger()
    result["environment"] = environment_fingerprint()
    if good:
        result["samples"] = samples
        result["peak_rss_mb"] = _peak_rss_mb()
        result["identities"] = {
            "semantic_digest": good[0].digest,
            **wl.identities(workload, good[0].metrics, request["scale"]),
        }
    return result


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    workload = wl.WORKLOADS[request["workload"]]
    if request["pass"] == "traced":
        from traced import traced_pass as run_pass
    else:
        run_pass = {"setup": setup_pass, "timed": timed_pass}[request["pass"]]
    sys.stdout.write(json.dumps(run_pass(workload, request)) + "\n")
    return 0


if __name__ == "__main__":
    # Run as the importable module, so traced.py shares these classes.
    import measure

    sys.exit(measure.main(sys.argv))
