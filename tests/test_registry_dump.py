"""The parent-vs-change registry dump tool (``python -m tests.registry_dump``)."""

import copy

from tests.registry_dump import differing, leaves, runs


def test_the_dump_covers_every_kind_on_both_tiers_and_six_chaos_seeds():
    planned = runs()
    assert len(planned) == 22
    assert {seed for kind, _engine, seed in planned if kind == "chaos"} == {
        1, 2, 3, 5, 7, 11,
    }  # fmt: skip
    assert {engine for _kind, engine, _seed in planned} == {"reference", "compiled"}


def test_diff_names_each_leaf_and_semantic_skips_strategy_counters():
    a = {
        "nat-linerate/compiled/1": {
            "metrics": {"sim.events": 60, "fiber.rx.packets": 10, "m.flow_cache.hits": 9},
            "summary": {"sim_events": 60, "delivered": {"packets": 10}},
            "histograms": {"h": {"bounds": [1.0, 2.0], "counts": [0, 3, 0]}},
        }
    }
    assert leaves(a)["nat-linerate/compiled/1/histograms/h/counts/1"] == 3
    assert differing(a, copy.deepcopy(a)) == []
    b = copy.deepcopy(a)
    run = b["nat-linerate/compiled/1"]
    run["metrics"]["sim.events"] = 61
    run["metrics"]["m.flow_cache.hits"] = 8
    run["summary"]["sim_events"] = 61
    assert len(differing(a, b)) == 3
    assert differing(a, b, semantic=True) == []
    run["summary"]["delivered"]["packets"] = 11
    del run["histograms"]["h"]["counts"][2]
    assert differing(a, b, semantic=True) == [
        "nat-linerate/compiled/1/histograms/h/counts/2: 0 != '<missing>'",
        "nat-linerate/compiled/1/summary/delivered/packets: 10 != 11",
    ]
