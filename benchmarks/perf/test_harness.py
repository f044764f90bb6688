"""Self-test of the perf harness (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

One ``--smoke`` pass of the whole benchmark (1/20 of the traffic, both
the timed and the traced pass) is shared by the tests that read its
output; the tracer and ``compare`` are also exercised in-process.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_BUDGET_S = 30.0


def _load(name: str):
    """Import a harness file by path (``trace`` shadows a stdlib module name)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return {"stdout": proc.stdout, "elapsed": elapsed, "doc": json.loads(out.read_text())}


def test_smoke_pass_is_quick_and_clean(smoke, declared):
    assert smoke["elapsed"] < SMOKE_BUDGET_S
    for workload in declared["workloads"]:
        entry = smoke["doc"]["workloads"][workload["name"]]
        assert entry["runs_attempted"] > 0
        assert entry["runs_failed"] == 0, entry["failures"]


def test_every_declared_name_is_reported_with_its_unit(smoke, declared):
    for workload in declared["workloads"]:
        name = workload["name"]
        assert NAME.fullmatch(name)
        assert f"== {name}:" in smoke["stdout"]
        entry = smoke["doc"]["workloads"][name]
        for metric in declared["end_to_end"]:
            assert NAME.fullmatch(metric["name"])
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert entry["metrics"][metric["name"]]["median"] > 0
        assert set(entry["layers"]) == {m["name"] for m in declared["per_layer"]}
        for metric in declared["per_layer"]:
            assert NAME.fullmatch(metric["name"])
            assert entry["layers"][metric["name"]]["unit"] == metric["unit"]
    for metric in declared["end_to_end"]:
        assert re.search(rf"^  {re.escape(metric['name'])} .* {metric['unit']} ", smoke["stdout"], re.M)


def test_span_identity_holds_on_every_workload(smoke):
    for name, entry in smoke["doc"]["workloads"].items():
        wall = entry["trace"]["wall_s"]
        layers = sum(
            cell["value"] for key, cell in entry["layers"].items() if key.endswith(".self_s")
        )
        unattributed = entry["layers"]["trace.unattributed_share"]["value"] * wall
        assert layers + unattributed == pytest.approx(wall, rel=0.01), name


def test_tracer_restores_every_original_and_changes_no_result():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.artifact.diff import semantic_shard_digest
        from repro.obs.scenario import ScenarioSpec, TrafficProfile

        tracer = _load("trace")
        spec = ScenarioSpec(
            kind="nat-linerate", engine="reference", traffic=TrafficProfile(10e9, 60, 20e-6)
        )

        def digest() -> str:
            run = spec.run()
            return semantic_shard_digest(run.metrics(), run.summary, run.histograms())

        before = digest()
        trace = tracer.LayerTrace("test")
        with trace:
            patched = trace.patched()
            with trace.root():
                traced = digest()
        assert patched, "nothing was wrapped"
        for namespace, name, original in patched:
            assert vars(namespace)[name] is original, (namespace, name)
        assert traced == before == digest()
        summary = trace.summary()
        assert summary["calls"]["sim.link"] > 0 and summary["self_s"]["core.ppe"] > 0
        total = sum(summary["self_s"].values()) + summary["unattributed_s"]
        assert total == pytest.approx(summary["wall_s"], rel=1e-6)
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_compare_verdicts_and_exit_code(smoke, declared, tmp_path, capsys):
    compare = _load("compare")
    base = smoke["doc"]

    def scaled(factor: float, metric: str = "wall_s") -> dict:
        doc = copy.deepcopy(base)
        for entry in doc["workloads"].values():
            stat = entry["metrics"][metric]
            for key in ("median", "min", "max"):
                stat[key] *= factor
        return doc

    def run(doc_b: dict) -> tuple[int, str]:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(doc_b))
        code = compare.main([str(a), str(b)], declared)
        return code, capsys.readouterr().out

    code, out = run(base)
    assert code == 0 and "worse" not in out and "unresolved" not in out

    code, out = run(scaled(3.0))
    assert code == 1 and out.count(" worse") == len(declared["workloads"])

    code, out = run(scaled(1 / 3.0))
    assert code == 0 and out.count(" better") == len(declared["workloads"])

    overlapping = scaled(1.5)
    for entry in overlapping["workloads"].values():
        entry["metrics"]["wall_s"]["min"] = 0.0
    code, out = run(overlapping)
    assert code == 0 and out.count("unresolved") == len(declared["workloads"])

    failing = copy.deepcopy(base)
    next(iter(failing["workloads"].values()))["runs_failed"] = 1
    code, out = run(failing)
    assert code == 1 and "runs failed" in out
