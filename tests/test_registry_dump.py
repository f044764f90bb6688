"""The parent-vs-change registry dump tool (``python -m tests.registry_dump``)."""

import copy
import json
from pathlib import Path

import tests.registry_dump as registry_dump
from repro.faults import NAMED_PLANS
from tests.registry_dump import differing, digests, label, leaves, runs

RECORD = Path(__file__).parent / "snapshots" / "registry_semantic.json"


def test_the_dump_covers_every_kind_on_both_tiers_and_six_chaos_seeds():
    planned = runs()
    assert len(planned) == 32
    assert {
        seed for kind, _engine, seed, plan in planned if kind == "chaos" and plan is None
    } == {1, 2, 3, 5, 7, 11}
    assert {engine for _kind, engine, _seed, _plan in planned} == {"reference", "compiled"}


def test_every_other_named_plan_runs_once_per_tier_at_seed_one():
    planned = runs()
    plans = [(engine, seed, plan) for _kind, engine, seed, plan in planned if plan]
    assert {plan for _engine, _seed, plan in plans} == set(NAMED_PLANS) - {"smoke"}
    assert len(plans) == 2 * (len(NAMED_PLANS) - 1)
    assert {seed for _engine, seed, _plan in plans} == {1}
    assert all(kind == "chaos" for kind, _engine, _seed, plan in planned if plan)


def test_a_plan_run_is_keyed_by_its_plan_and_diffs_like_any_other():
    a = {
        "chaos:brownout/compiled/1": {
            "metrics": {"sim.events": 9, "switch.forwarded.bytes": 87598},
            "summary": {},
            "histograms": {},
        }
    }
    b = copy.deepcopy(a)
    b["chaos:brownout/compiled/1"]["metrics"]["sim.events"] = 8
    assert differing(a, b, semantic=True) == []
    b["chaos:brownout/compiled/1"]["metrics"]["switch.forwarded.bytes"] = 87597
    assert differing(a, b, semantic=True) == [
        "chaos:brownout/compiled/1/metrics/switch.forwarded.bytes: 87598 != 87597"
    ]


def test_diff_names_each_leaf_and_semantic_skips_strategy_counters():
    a = {
        "nat-linerate/compiled/1": {
            "metrics": {"sim.events": 60, "fiber.rx.packets": 10, "m.flow_cache.hits": 9},
            "summary": {"delivered": {"packets": 10}},
            "histograms": {"h": {"bounds": [1.0, 2.0], "counts": [0, 3, 0]}},
        }
    }
    assert leaves(a)["nat-linerate/compiled/1/histograms/h/counts/1"] == 3
    assert differing(a, copy.deepcopy(a)) == []
    b = copy.deepcopy(a)
    run = b["nat-linerate/compiled/1"]
    run["metrics"]["sim.events"] = 61
    run["metrics"]["m.flow_cache.hits"] = 8
    assert len(differing(a, b)) == 2
    assert differing(a, b, semantic=True) == []
    run["summary"]["delivered"]["packets"] = 11
    del run["histograms"]["h"]["counts"][2]
    assert differing(a, b, semantic=True) == [
        "nat-linerate/compiled/1/histograms/h/counts/2: 0 != '<missing>'",
        "nat-linerate/compiled/1/summary/delivered/packets: 10 != 11",
    ]


def test_digests_move_with_semantic_leaves_only():
    run = {
        "metrics": {"sim.events": 60, "fiber.rx.packets": 10},
        "summary": {},
        "histograms": {},
    }
    moved = copy.deepcopy(run)
    moved["metrics"]["sim.events"] = 59
    assert digests({"k": run}) == digests({"k": moved})
    moved["metrics"]["fiber.rx.packets"] = 11
    assert digests({"k": run}) != digests({"k": moved})


def test_digests_mode_writes_one_digest_per_run(monkeypatch, tmp_path):
    document = {
        "nat-linerate/reference/1": {
            "metrics": {"fiber.rx.packets": 10},
            "summary": {},
            "histograms": {},
        }
    }
    monkeypatch.setattr(registry_dump, "dump", lambda: document)
    out = tmp_path / "record.json"
    assert registry_dump.main(["--digests", str(out)]) == 0
    assert json.loads(out.read_text()) == digests(document)
    assert registry_dump.main(["--diff", str(out), str(out)]) == 0


def test_the_checked_in_record_covers_every_run_and_the_tiers_agree():
    """One digest per planned run; reference and compiled hash alike on
    every run."""
    record = json.loads(RECORD.read_text())
    assert set(record) == {label(*run) for run in runs()}
    diverged = {
        key.split("/")[0]
        for key in record
        if "/reference/" in key
        and record[key] != record[key.replace("/reference/", "/compiled/")]
    }
    assert diverged == set()
