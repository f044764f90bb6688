"""``run.py compare A.json B.json``: did B get worse than A, beyond the noise?

One row per workload x end-to-end metric: both medians, the ratio B/A
(A is the base), and a verdict against the metric's bound from
BENCHMARK.json:

``same``        the medians differ by no more than the bound;
``better``      B is better by more than the bound and every B sample
                beats every A sample;
``worse``       the same, the other way round;
``unresolved``  the medians differ by more than the bound but the two
                sides' min-max ranges overlap: more runs are needed.

Exits non-zero on any ``worse`` or when B fails a larger share of its
runs.  When both documents used one seed, the simulated-time identities
and the exact per-layer counts are compared too and printed as
``changed`` where they differ: a change that only makes the simulator
faster must leave all of them alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXACT_UNITS = ("count", "bytes")


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    if abs(b["median"] - a["median"]) <= bound * a["median"]:
        return "same"
    if a["min"] <= b["max"] and b["min"] <= a["max"]:
        return "unresolved"
    b_is_lower = b["median"] < a["median"]
    return "better" if b_is_lower == (better == "lower") else "worse"


def failure_share(entry: dict) -> float:
    return entry["runs_failed"] / max(1, entry["runs_attempted"])


def main(argv: list[str], declared: dict) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: run.py compare A.json B.json\n")
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    out = sys.stdout.write
    same_seed = doc_a["seed"] == doc_b["seed"] and doc_a["scale"] == doc_b["scale"]
    out(
        f"A: {argv[0]} ({doc_a['host']['git_commit'][:12]}, seed {doc_a['seed']})\n"
        f"B: {argv[1]} ({doc_b['host']['git_commit'][:12]}, seed {doc_b['seed']})\n"
    )
    out(f"{'workload':<22} {'metric':<12} {'A':>10} {'B':>10} {'B/A':>7} {'bound':>6}  verdict\n")
    bad = 0
    for name in (w["name"] for w in declared["workloads"]):
        a, b = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        if a is None or b is None:
            out(f"{name:<22} missing from {'A' if a is None else 'B'}\n")
            bad += 1
            continue
        for metric in declared["end_to_end"]:
            key = metric["name"]
            if key not in a.get("metrics", {}) or key not in b.get("metrics", {}):
                continue
            sa, sb = a["metrics"][key], b["metrics"][key]
            result = verdict(sa, sb, metric["bound"], metric["better"])
            bad += result == "worse"
            out(
                f"{name:<22} {key:<12} {sa['median']:>10.4f} {sb['median']:>10.4f} "
                f"{sb['median'] / sa['median']:>7.3f} {metric['bound']:>6.2f}  {result}\n"
            )
        if failure_share(b) > failure_share(a):
            out(
                f"{name:<22} runs failed  {a['runs_failed']}/{a['runs_attempted']} -> "
                f"{b['runs_failed']}/{b['runs_attempted']}  worse\n"
            )
            bad += 1
        if same_seed:
            for what, va, vb in _exact_pairs(a, b):
                if va != vb:
                    out(f"{name:<22} {what}: {va} -> {vb}  changed\n")
    return 1 if bad else 0


def _exact_pairs(a: dict, b: dict):
    """(name, A value, B value) for everything that must repeat exactly."""
    ida, idb = a.get("identities", {}), b.get("identities", {})
    for key in ida.keys() & idb.keys():
        yield key, ida[key], idb[key]
    la, lb = a.get("layers", {}), b.get("layers", {})
    for key in sorted(la.keys() & lb.keys()):
        if la[key]["unit"] in EXACT_UNITS:
            yield key, la[key]["value"], lb[key]["value"]
