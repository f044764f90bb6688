"""The registry record: the declared cells' semantic digests
(``flexsfp matrix --record``, checked in as
``tests/snapshots/registry_semantic.json``) and the parent-vs-change
check against a record or an earlier ``--out`` document (``--against``)."""

import json
from dataclasses import replace
from pathlib import Path

from repro.cli import main
from repro.faults import NAMED_PLANS
from repro.matrix import MatrixResult, compare, declared, labels
from repro.obs.scenario import SCENARIO_KINDS

RECORD = Path(__file__).parent / "snapshots" / "registry_semantic.json"

NAT = ("matrix", "--scenario", "nat-linerate")


def _sweeps():
    """(kind, plan, root seed, shard counts, tiers) per declared sweep."""
    return [
        (spec.kind, spec.fault_plan, spec.seed, axes.shards, axes.engines)
        for spec, axes in declared()
    ]


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_the_dump_covers_every_kind_on_both_tiers_and_six_chaos_seeds():
    """The old dump's six chaos seeds run as root seeds; root 21 joins them
    for its reboot inside a reboot."""
    unplanned = {
        (kind, seed, shards) for kind, plan, seed, shards, _ in _sweeps() if plan is None
    }
    assert unplanned == (
        {(kind, 1, (1,)) for kind in SCENARIO_KINDS}
        | {("chaos", seed, (1,)) for seed in (2, 3, 5, 7, 11, 21)}
        | {("nat-linerate", 11, (4,))}
    )
    assert {tiers for *_, tiers in _sweeps()} == {("reference", "compiled")}
    assert len(labels()) == len(set(labels())) == 36


def test_every_other_named_plan_runs_once_per_tier_at_seed_one():
    plans = [(plan, seed, shards) for kind, plan, seed, shards, _ in _sweeps() if plan]
    assert sorted(plan for plan, _seed, _shards in plans) == sorted(
        set(NAMED_PLANS) - {"smoke"}
    )
    assert {(seed, shards) for _plan, seed, shards in plans} == {(1, (1,))}
    assert all(kind == "chaos" for kind, plan, *_ in _sweeps() if plan)


def test_a_plan_run_is_keyed_by_its_plan_and_diffs_like_any_other(nat_sweep):
    assert {label.split("/")[0] for label in labels("chaos")} == {"chaos"} | {
        f"chaos:{plan}" for plan in NAMED_PLANS if plan != "smoke"
    }
    (run,) = [c for c in nat_sweep.cells if c.label == "nat-linerate/compiled/1"]
    cell = replace(run, label="chaos:brownout/compiled/1")
    result = MatrixResult(cells=(cell,))
    metrics = dict(run.artifact.metrics)
    metrics["sim.events"] += 1
    moved = replace(run.artifact, metrics=dict(metrics))
    lines, diverged = compare(result, {cell.label: moved})
    assert diverged == []
    assert lines[0].startswith("chaos:brownout/compiled/1: timing-only metrics.sim.events")
    metrics["fiber.rx.packets"] += 1
    lines, diverged = compare(result, {cell.label: replace(moved, metrics=metrics)})
    assert diverged == ["chaos:brownout/compiled/1"]
    assert any(
        line.startswith("chaos:brownout/compiled/1: metric-value metrics.fiber.rx.packets")
        for line in lines
    )


def test_diff_names_each_leaf_and_semantic_skips_strategy_counters(
    nat_sweep, memoised_runs, tmp_path, capsys
):
    """Against an earlier ``--out`` document every entry is printed; only
    a semantic one fails the run."""
    document = tmp_path / "doc.json"
    assert main([*NAT, "--out", str(document)]) == 0
    payload = json.loads(document.read_text())
    (cell,) = [c for c in payload["cells"] if c["label"] == "nat-linerate/compiled/1"]
    cell["artifact"]["metrics"]["sim.events"] += 1
    capsys.readouterr()
    assert main([*NAT, "--against", _write(tmp_path / "a.json", payload)]) == 0
    assert "nat-linerate/compiled/1: timing-only metrics.sim.events" in capsys.readouterr().out
    cell["artifact"]["metrics"]["fiber.rx.packets"] += 1
    assert main([*NAT, "--against", _write(tmp_path / "b.json", payload)]) == 5
    assert "nat-linerate/compiled/1: metric-value metrics.fiber.rx.packets" in (
        capsys.readouterr().out
    )


def test_digests_move_with_semantic_leaves_only(nat_sweep):
    """A cell's record entry is its shards' semantic digests: a raw shard
    digest or a timing-only metric leaves it, a shard's semantic digest
    moves it."""
    by_label = {cell.label: cell for cell in nat_sweep.cells}
    one = by_label["nat-linerate/reference/1"]
    assert one.digest == one.artifact.shards[0]["semantic_digest"]
    four = by_label["nat-linerate/reference/11/shards=4"]
    shards = [dict(shard) for shard in four.artifact.shards]
    shards[3]["digest"] = "0" * 64
    metrics = {**four.artifact.metrics, "sim.events": four.artifact.metrics["sim.events"] + 1}
    timing = replace(four, artifact=replace(four.artifact, shards=tuple(shards), metrics=metrics))
    assert timing.digest == four.digest
    shards[3]["semantic_digest"] = "0" * 64
    moved = replace(four, artifact=replace(four.artifact, shards=tuple(shards)))
    assert moved.digest != four.digest


def test_digests_mode_writes_one_digest_per_run(nat_sweep, memoised_runs, tmp_path, capsys):
    """``--record`` writes one digest per cell run; a fresh record is
    clean, and a flipped digest exits 5 naming its cell."""
    record = tmp_path / "record.json"
    assert main([*NAT, "--record", str(record)]) == 0
    assert json.loads(record.read_text()) == nat_sweep.record()
    assert set(nat_sweep.record()) == set(labels("nat-linerate"))
    assert main([*NAT, "--against", str(record)]) == 0
    assert main([*NAT, "--against", str(RECORD)]) == 0
    flipped = {**nat_sweep.record(), "nat-linerate/compiled/11/shards=4": "0" * 64}
    capsys.readouterr()
    assert main([*NAT, "--against", _write(tmp_path / "flipped.json", flipped)]) == 5
    out = capsys.readouterr().out
    assert f"nat-linerate/compiled/11/shards=4: {'0' * 64} != " in out
    assert "1 cell(s) diverged from" in out


def test_the_checked_in_record_covers_every_run_and_the_tiers_agree():
    """One digest per declared cell; reference and compiled hash alike on
    every one."""
    record = json.loads(RECORD.read_text())
    assert set(record) == set(labels())
    diverged = {
        key
        for key in record
        if "/reference/" in key
        and record[key] != record[key.replace("/reference/", "/compiled/")]
    }
    assert diverged == set()
