"""Unit tests for the scenario matrix runner (axes, cells, execution)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.matrix import (
    CellConfig,
    MatrixAxes,
    parse_axis_values,
    parse_int_axis,
    parse_optional_axis,
    run_matrix,
)
from repro.obs.scenario import ScenarioSpec


class TestAxes:
    def test_default_axes_single_cell(self):
        axes = MatrixAxes()
        assert axes.size() == 1
        (cell,) = list(axes.cells())
        assert cell.engine == "reference"

    def test_cell_order_is_axis_major(self):
        axes = MatrixAxes(engines=("reference", "compiled"), shards=(1, 4))
        labels = [cell.label for cell in axes.cells()]
        assert labels == [
            "engine=reference,shards=1,workers=1",
            "engine=reference,shards=4,workers=1",
            "engine=compiled,shards=1,workers=1",
            "engine=compiled,shards=4,workers=1",
        ]
        assert axes.size() == len(labels)

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
    def test_apply_overrides_only_swept_knobs(self):
        base = ScenarioSpec(kind="nat-linerate", seed=42).resolved()
        cell = CellConfig(
            engine="compiled", shards=4, workers=2, device=None, fault_plan=None
        )
        spec = cell.apply(base)
        assert spec.seed == 42
        assert spec.kind == "nat-linerate"
        assert spec.engine == "compiled"
        assert spec.shards == 4
        assert spec.device == base.device  # None axis keeps the base

    def test_apply_device_and_fault_plan_overrides(self):
        base = ScenarioSpec(kind="chaos", seed=1).resolved()
        cell = CellConfig(
            engine="reference",
            shards=1,
            workers=1,
            device="MPF300T",
            fault_plan="linkstorm",
        )
        spec = cell.apply(base)
        assert spec.device == "MPF300T"
        assert spec.fault_plan == "linkstorm"
        assert "device=MPF300T" in cell.label
        assert "faults=linkstorm" in cell.label


class TestAxisParsers:
    def test_parse_axis_values(self):
        assert parse_axis_values("a, b ,c", "x") == ("a", "b", "c")
        with pytest.raises(ConfigError, match="no values"):
            parse_axis_values(" , ", "x")

    def test_parse_int_axis(self):
        assert parse_int_axis("1,4", "shards") == (1, 4)
        with pytest.raises(ConfigError, match="integers"):
            parse_int_axis("1,x", "shards")

    def test_parse_optional_axis(self):
        assert parse_optional_axis("none,MPF300T", "devices") == (None, "MPF300T")


class TestRunMatrix:
    def test_two_cell_matrix_clean(self):
        axes = MatrixAxes(engines=("reference", "compiled"))
        result = run_matrix(ScenarioSpec(kind="nat-linerate", seed=3), axes)
        assert result.verdict == "clean"
        assert len(result.cells) == 2
        assert result.cells[0].is_baseline
        assert result.cells[0].verdict == "baseline"
        assert not result.cells[1].diverged

    def test_baseline_index_selects_cell(self):
        axes = MatrixAxes(engines=("reference", "compiled"))
        result = run_matrix(
            ScenarioSpec(kind="nat-linerate", seed=3), axes, baseline=1
        )
        assert result.baseline == "engine=compiled,shards=1,workers=1"
        assert result.cells[1].is_baseline

    def test_baseline_out_of_range(self):
        with pytest.raises(ConfigError, match="baseline index"):
            run_matrix(ScenarioSpec(kind="nat-linerate", seed=3), MatrixAxes(), baseline=5)

    def test_progress_callback_sees_every_label(self):
        axes = MatrixAxes(engines=("reference", "compiled"))
        seen: list[str] = []
        run_matrix(
            ScenarioSpec(kind="nat-linerate", seed=3), axes, progress=seen.append
        )
        assert seen == [cell.label for cell in axes.cells()]

    def test_document_round_trips(self):
        axes = MatrixAxes(engines=("reference",))
        result = run_matrix(ScenarioSpec(kind="nat-linerate", seed=3), axes)
        payload = json.loads(result.document())
        assert payload["schema"] == "flexsfp.matrix/1"
        assert payload["verdict"] == "clean"
        assert payload["counts"]["cells"] == 1
        assert payload["cells"][0]["artifact"]["schema"] == "flexsfp.run/1"

    def test_cell_artifacts_carry_matrix_source(self):
        axes = MatrixAxes(engines=("reference",))
        result = run_matrix(ScenarioSpec(kind="nat-linerate", seed=3), axes)
        assert result.cells[0].artifact.source.startswith("matrix:")
