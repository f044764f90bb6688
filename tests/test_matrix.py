"""The declared tier sweep (``repro.matrix``, ``flexsfp matrix``): its
axes, cells and command.  Tier-1 does not run the whole sweep (CI's
``matrix`` job does, against the record): the ``nat-linerate`` cells run
once per session (``nat_sweep``), and the cross-tier and record checks
live in ``test_matrix_differential.py`` and ``test_registry_dump.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.artifact import RunArtifact
from repro.cli import main
from repro.core.module import RECONFIG_DOWNTIME_S, FlexSFPModule
from repro.errors import ConfigError
from repro.matrix import CellConfig, MatrixAxes, declared, labels
from repro.matrix import runner
from repro.obs.scenario import SCENARIO_KINDS, ScenarioSpec, TrafficProfile
from repro.parallel import run_sharded

NAT = ("matrix", "--scenario", "nat-linerate")


def _write(path: Path, payload) -> str:
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


class TestDeclaredList:
    def test_one_declared_chaos_cell_reboots_inside_a_reboot(self, monkeypatch):
        """Root 21's run reboots the module again inside the first reboot's
        dark window, the case a single-reboot seed cannot see.  The fault
        schedule depends on the seed only, so a thin stream finds the same
        reboot instants as the cell's default traffic."""
        reboots: list[float] = []
        reboot = FlexSFPModule.reboot

        def recorded(module):
            reboots.append(module.sim.now)
            reboot(module)

        monkeypatch.setattr(FlexSFPModule, "reboot", recorded)
        overlapping = []
        for spec, _axes in declared():
            if spec.kind == "chaos" and spec.fault_plan is None:
                reboots.clear()
                thin = TrafficProfile(rate_bps=1e6, frame_len=512, duration_s=1.5)
                run_sharded(replace(spec, engine="reference", traffic=thin))
                if any(b - a < RECONFIG_DOWNTIME_S for a, b in zip(reboots, reboots[1:])):
                    overlapping.append(spec.seed)
        assert 21 in overlapping

    @pytest.mark.parametrize("kind", sorted(set(SCENARIO_KINDS) - {"chaos"}))
    def test_every_kind_but_chaos_ignores_its_root_seed(self, kind):
        """Every kind but chaos draws nothing from its root seed, so
        ``declared()`` runs it one-shard at root 1 only: a second root would
        record the same digest.  A kind that starts drawing from its seed
        fails here by name, and then wants a second root in the sweep."""
        short = {
            "tenant-churn": TrafficProfile(rate_bps=20e6, frame_len=256, duration_s=0.1),
            "fleet-upgrade": TrafficProfile(rate_bps=20e6, frame_len=512, duration_s=0.2),
        }.get(kind)
        digests = {
            seed: run_sharded(ScenarioSpec(kind=kind, seed=seed, traffic=short))
            .to_artifact(source="seed")
            .shards[0]["semantic_digest"]
            for seed in (1, 3)
        }
        assert digests[1] == digests[3], f"{kind} draws from its root seed"
        one_shard = [s.seed for s, axes in declared() if s.kind == kind and axes.shards == (1,)]
        assert one_shard == [1]


class TestAxes:
    def test_cell_order_is_axis_major(self):
        axes = MatrixAxes(shards=(1, 4))
        base = ScenarioSpec(kind="nat-linerate", seed=11)
        assert [cell.label(base) for cell in axes.cells()] == [
            "nat-linerate/reference/11",
            "nat-linerate/reference/11/shards=4",
            "nat-linerate/compiled/11",
            "nat-linerate/compiled/11/shards=4",
        ]

    def test_default_axes_cross_both_tiers_at_one_shard(self):
        assert list(MatrixAxes().cells()) == [
            CellConfig("reference", 1),
            CellConfig("compiled", 1),
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            list(MatrixAxes(engines=()).cells())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            list(MatrixAxes(engines=("warp",)).cells())

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigError, match="shards"):
            list(MatrixAxes(shards=(0,)).cells())


class TestCellConfig:
    def test_a_plan_cell_is_labelled_by_its_plan(self):
        spec = ScenarioSpec(kind="chaos", fault_plan="brownout", seed=1)
        assert CellConfig("compiled", 1).label(spec) == "chaos:brownout/compiled/1"
        assert CellConfig("reference", 4).label(spec) == (
            "chaos:brownout/reference/1/shards=4"
        )

    def test_apply_overrides_only_swept_knobs(self):
        base = ScenarioSpec(kind="nat-linerate", seed=42).resolved()
        spec = CellConfig(engine="compiled", shards=4).apply(base)
        assert spec == replace(base, engine="compiled", shards=4)


class TestRunMatrix:
    def test_two_cell_matrix_clean(self, nat_sweep):
        (cell,) = [c for c in nat_sweep.cells if c.label == "nat-linerate/compiled/1"]
        assert cell.baseline == "nat-linerate/reference/1"
        assert cell.verdict == "timing-only"

    def test_progress_callback_sees_every_label(self, nat_sweep, nat_progress):
        assert nat_progress == labels("nat-linerate") == [c.label for c in nat_sweep.cells]

    def test_document_round_trips(self, nat_sweep):
        payload = json.loads(nat_sweep.document())
        assert payload["schema"] == "flexsfp.matrix/1"
        assert payload["verdict"] == "clean"
        assert payload["counts"]["cells"] == len(labels("nat-linerate"))
        for cell in payload["cells"]:
            assert RunArtifact.from_dict(cell["artifact"]).spec["seed"] in (1, 11)

    def test_cell_artifacts_carry_matrix_source(self, nat_sweep):
        for cell in nat_sweep.cells:
            assert cell.artifact.source == f"matrix:{cell.label}"


class TestTheCommand:
    """``flexsfp matrix`` through ``main``: exit 0 clean, 5 on any divergence
    from the tiers or the file, 2 on a file it cannot read as a record or a
    document.  A record that lacks a run cell or names a cell that is not
    declared diverges too (exit 5, the line names the cell)."""

    def test_a_record_missing_a_cell_or_naming_an_unknown_one_diverges(
        self, nat_sweep, memoised_runs, tmp_path, capsys
    ):
        record = nat_sweep.record()
        del record["nat-linerate/reference/1"]
        record["nat-linerate/warp/1"] = "0" * 64
        # Another kind's declared cell is not this run's: it is skipped.
        record["chaos/reference/1"] = "0" * 64
        assert main([*NAT, "--against", _write(tmp_path / "r.json", record), "--json"]) == 5
        against = json.loads(capsys.readouterr().out)["against"]
        assert against["diverged"] == ["nat-linerate/warp/1", "nat-linerate/reference/1"]
        assert against["lines"] == [
            "nat-linerate/warp/1: not a declared cell",
            "nat-linerate/reference/1: missing from the file",
        ]

    @pytest.mark.parametrize(
        "content, named",
        [
            ("{not json", "is not valid JSON"),
            ("[1, 2]", "must be dict"),
            ('{"schema": "flexsfp.run/1"}', "expected a record"),
            ('{"nat-linerate/reference/1": 7}', "record entry"),
            ('{"schema": "flexsfp.matrix/1", "cells": [{"label": "x"}]}', "cells[0].artifact"),
        ],
    )
    def test_an_unreadable_file_exits_2_before_any_cell_runs(
        self, tmp_path, capsys, monkeypatch, content, named
    ):
        monkeypatch.setattr(runner, "run_sharded", pytest.fail)
        bad = _write(tmp_path / "bad.json", content)
        assert main([*NAT, "--against", bad]) == 2
        err = capsys.readouterr().err
        assert bad in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag",
        [
            "--workers", "--devices", "--fault-plans", "--baseline", "--start-method",
            "--seed", "--engines", "--shards", "--fail-on-diverged",
        ],
    )  # fmt: skip
    def test_the_deleted_flags_are_refused(self, flag):
        with pytest.raises(SystemExit) as refused:
            main(["matrix", flag, "1"])
        assert refused.value.code == 2
