"""Golden corpus: canonical ``flexsfp.run/1`` artifacts, byte-pinned.

Each case regenerates an artifact in-process from a fixed seed and
asserts it is byte-identical to the checked-in file under
``tests/golden/``.  Because the golden form is
:meth:`RunArtifact.golden_bytes` — the normalized artifact (volatile
timings/environment/supervisor zeroed) as sorted, indented JSON — any
difference is a *semantic* regression: a metric value moved, a digest
changed, a field was added or renamed.

Intentional schema changes regenerate the corpus with::

    PYTHONPATH=src python -m pytest tests/test_golden_corpus.py --regen-golden

then review the resulting diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.artifact import RunArtifact, diff_artifacts
from repro.matrix import declared
from repro.obs.scenario import ScenarioSpec, TrafficProfile
from repro.parallel import run_sharded

GOLDEN_DIR = Path(__file__).parent / "golden"
RECORD = Path(__file__).parent / "snapshots" / "registry_semantic.json"


def _fleet_artifact(spec: ScenarioSpec) -> RunArtifact:
    return run_sharded(spec, workers=1).to_artifact()


# name -> the spec whose ``flexsfp run`` artifact the golden pins.  Every
# case pins a different slice of the surface: the reference engine, the
# compiled engine (fused burst lane: same semantic digests, different
# metric set), a multi-shard fleet merge, the chaos gauntlet, and the
# multi-tenant crossbar (the deployment knob block, the per-tenant metric
# subtrees, and the tenant_digests summary).
GOLDEN_CASES = {
    "nat-linerate_seed11_reference": ScenarioSpec(
        kind="nat-linerate", seed=11, shards=1, engine="reference"
    ),
    "nat-linerate_seed11_compiled": ScenarioSpec(
        kind="nat-linerate", seed=11, shards=1, engine="compiled"
    ),
    "nat-linerate_seed11_shards2": ScenarioSpec(
        kind="nat-linerate", seed=11, shards=2, engine="reference"
    ),
    "chaos_smoke_seed7": ScenarioSpec(
        kind="chaos", fault_plan="smoke", seed=7, shards=1, engine="reference"
    ),
    "nfv-chain_seed3_reference": ScenarioSpec(
        kind="nfv-chain",
        seed=3,
        shards=1,
        engine="reference",
        traffic=TrafficProfile(rate_bps=20e6, frame_len=256, duration_s=0.2),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_artifact_bytes(name: str, regen_golden: bool) -> None:
    produced = _fleet_artifact(GOLDEN_CASES[name]).golden_bytes()
    path = GOLDEN_DIR / f"{name}.json"
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes(produced)
        return
    assert path.is_file(), (
        f"golden file {path} missing; generate it with --regen-golden"
    )
    assert produced == path.read_bytes(), (
        f"{name}: regenerated artifact differs from the golden corpus; "
        "if the change is intentional, rerun with --regen-golden and "
        "review the diff"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_files_are_valid_run_documents(name: str) -> None:
    """Every golden file parses back into an identical RunArtifact."""
    path = GOLDEN_DIR / f"{name}.json"
    if not path.is_file():
        pytest.skip("golden corpus not generated")
    payload = json.loads(path.read_bytes())
    artifact = RunArtifact.from_dict(payload)
    assert artifact.to_dict() == payload
    assert artifact.spec_digest
    assert all(shard["semantic_digest"] for shard in artifact.shards)
    # A golden is its own fixed point: zero diff against itself.
    assert diff_artifacts(artifact, artifact).identical


def test_golden_spec_digest_stable_across_regeneration() -> None:
    """Same seed, two fresh runs: identical spec digest AND golden bytes."""
    spec = ScenarioSpec(kind="nat-linerate", seed=11, shards=1, engine="reference")
    first = _fleet_artifact(spec)
    second = _fleet_artifact(spec)
    assert first.spec_digest == second.spec_digest
    assert first.artifact_digest() == second.artifact_digest()
    assert first.golden_bytes() == second.golden_bytes()


def test_a_golden_of_a_declared_cell_carries_its_recorded_digest() -> None:
    """A golden whose spec is a declared matrix cell pins the very run the
    registry record holds for that cell: one root seed names one run."""
    record = json.loads(RECORD.read_text())
    cells = [
        (config.apply(base.resolved()), config.label(base))
        for base, axes in declared()
        for config in axes.cells()
        if config.shards == 1
    ]
    checked = []
    for name, spec in GOLDEN_CASES.items():
        resolved = spec.resolved()
        label = next((label for cell, label in cells if cell == resolved), None)
        if label is None:
            continue
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_bytes())
        assert golden["shards"][0]["semantic_digest"] == record[label], (name, label)
        checked.append((name, label))
    assert ("chaos_smoke_seed7", "chaos/reference/7") in checked
