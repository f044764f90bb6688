"""The repo benchmark: five scenario workloads, end to end and per layer.

    python benchmarks/perf/run.py --seed 1 --out BENCH.json     # everything
    python benchmarks/perf/run.py --workload chaos-smoke --seed 1 --seconds 14 --trace 0
    python benchmarks/perf/run.py compare A.json B.json

Every workload runs in fresh child processes (``measure.py``) with the
``FLEXSFP_*`` environment removed, so this parent only orchestrates,
prints every metric by name with its unit, and exits non-zero when any
check failed.  With ``--workload`` the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics for ``--trace 0``, the per-layer ones for
``--trace 1``).  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import compare  # noqa: E402

SCHEMA = "flexsfp.perfbench/1"
DEFAULT_SECONDS = 14
SETUP_PROBES = 7
MIN_REPEATS = 3
TRACE_REPEATS = 3
SMOKE_SCALE = 0.05
CHILD_TIMEOUT_S = 170


@functools.cache
def declared() -> dict:
    """BENCHMARK.json: the one place workloads, metrics and bounds are named."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """The parent's environment minus everything that could steer a run.

    ``Settings`` reads ``FLEXSFP_*`` and would silently change the engine,
    batch size or worker count; hash randomisation would reorder sets.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLEXSFP_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def child(request: dict) -> dict:
    """Run one pass in a fresh interpreter; its last stdout line is the result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), json.dumps(request)],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{request['pass']} pass of {request['workload']} exited "
            f"{proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stat(unit: str, samples: list[float], raw: list[float] | None = None) -> dict:
    """Median, range and count of one metric's samples.

    ``raw_median`` is the same timing before the yardstick scaled it
    (see calibrate.py): what a stopwatch would have read.
    """
    out = {
        "unit": unit,
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }
    if raw is not None:
        out["raw_median"] = statistics.median(raw)
    return out


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def measure_setup(request: dict, probes: int) -> dict:
    """``setup_s``: interpreter start to the end of a 1 µs run, fresh each time."""
    samples, raw = [], []
    for _ in range(probes):
        start = perf_counter()
        probe = child({**request, "pass": "setup"})
        raw.append(probe["done_at"] - start)
        samples.append(calibrate.scaled(raw[-1], probe["spin_s"]))
    return stat("s", samples, raw)


def run_workload(name: str, args, tmp: Path, passes: tuple[str, ...]) -> dict:
    request = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "min_repeats": 2 if args.smoke else MIN_REPEATS,
        "trace_repeats": 1 if args.smoke else TRACE_REPEATS,
        "tmp": str(tmp),
    }
    entry: dict = {"runs_attempted": 0, "runs_failed": 0, "failures": []}

    def merge(result: dict) -> None:
        entry["runs_attempted"] += result["runs_attempted"]
        entry["runs_failed"] += result["runs_failed"]
        entry["failures"] += result["failures"]

    if "timed" in passes:
        setup = measure_setup(request, probes=1 if args.smoke else SETUP_PROBES)
        timed = child({**request, "pass": "timed"})
        merge(timed)
        entry["environment"] = timed["environment"]
        if "samples" in timed:
            samples = timed["samples"]
            column = {key: [sample[key] for sample in samples] for key in samples[0]}
            entry["metrics"] = {
                "wall_s": stat("s", column["wall_s"], column["raw_wall_s"]),
                "cpu_s": stat("s", column["cpu_s"], column["raw_cpu_s"]),
                "peak_rss_mb": stat("MB", [timed["peak_rss_mb"]]),
                "setup_s": setup,
            }
            entry["spin_s"] = statistics.median(column["spin_s"])
            entry["identities"] = timed["identities"]
    if "traced" in passes:
        if args.spans:
            Path(args.spans).mkdir(parents=True, exist_ok=True)
            request["spans"] = str(Path(args.spans) / f"{name}.spans.npz")
        traced = child({**request, "pass": "traced"})
        merge(traced)
        if "layers" in traced:
            units = {m["name"]: m["unit"] for m in declared()["per_layer"]}
            entry["layers"] = {
                key: {"unit": units[key], "value": value}
                for key, value in traced["layers"].items()
            }
            entry["trace"] = traced["trace"]
    return entry


def print_workload(name: str, entry: dict) -> None:
    out = sys.stdout.write
    out(
        f"\n== {name}: runs_failed / runs_attempted = "
        f"{entry['runs_failed']} / {entry['runs_attempted']}\n"
    )
    for failure in entry["failures"]:
        out(f"  FAILED {failure}\n")
    for metric, s in entry.get("metrics", {}).items():
        raw = f", raw median {s['raw_median']:.4f}" if "raw_median" in s else ""
        out(
            f"  {metric:<14} {s['median']:>12.4f} {s['unit']:<3} "
            f"(min {s['min']:.4f}, max {s['max']:.4f}, n={s['n']}{raw})\n"
        )
    for key, value in entry.get("identities", {}).items():
        out(f"  {key:<18} {value}\n")
    for key, cell in entry.get("layers", {}).items():
        if cell["value"]:
            out(f"  {key:<34} {cell['value']:>16.6g} {cell['unit']}\n")
    if "trace" in entry:
        trace = entry["trace"]
        out(f"  trace {trace['id']}: {trace['spans']} spans, wall {trace['wall_s']:.3f} s\n")
        for owner, seconds in trace["unattributed_owners"].items():
            out(f"    unattributed event owner {owner}: {seconds:.4f} s\n")


def driver_line(entry: dict, trace: int | None) -> str:
    """The contract's result object for one ``--workload`` run."""
    metrics = {}
    if trace in (0, None):
        for name, s in entry.get("metrics", {}).items():
            metrics[name] = {"value": s["median"], "unit": s["unit"]}
    if trace in (1, None):
        for name, cell in entry.get("layers", {}).items():
            metrics[name] = {"value": cell["value"], "unit": cell["unit"]}
    return json.dumps(
        {
            "correct": entry["runs_failed"] == 0 and bool(metrics),
            "attempted": max(1, entry["runs_attempted"]),
            "failed": entry["runs_failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_main(argv: list[str]) -> int:
    names = [w["name"] for w in declared()["workloads"]]
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="timed repeats continue until this much measured wall clock",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end pass only; 1: traced per-layer pass only; omit for both",
    )  # fmt: skip
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--spans", help="directory for the traced runs' span arrays")
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"1/{round(1 / SMOKE_SCALE)} of the traffic, minimum repeats: a harness check",
    )  # fmt: skip
    args = parser.parse_args(argv)
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    if args.smoke:
        args.seconds = 0.0
    passes = {None: ("timed", "traced"), 0: ("timed",), 1: ("traced",)}[args.trace]

    # Scratch space stays inside the checkout (and out of git).
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
        },
        "workloads": {},
    }
    try:
        for name in [args.workload] if args.workload else names:
            entry = run_workload(name, args, tmp, passes)
            document["host"].setdefault("environment", entry.pop("environment", None))
            document["workloads"][name] = entry
            print_workload(name, entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    failed = sum(e["runs_failed"] for e in document["workloads"].values())
    if args.workload:
        sys.stdout.write(driver_line(document["workloads"][args.workload], args.trace) + "\n")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], declared())
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
