"""The unified metrics registry: naming, namespacing, collection."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    MetricsRegistry,
    MetricSource,
    metrics_json,
    metrics_jsonl,
    prometheus_name,
    prometheus_text,
    validate_metric_name,
)
from repro.sim import Counter


class FixedSource:
    def __init__(self, values):
        self._values = values

    def metric_values(self):
        return dict(self._values)


class TestNameValidation:
    def test_valid_names(self):
        for name in ("a", "a.b", "module0.ppe.nat.overload_drops.packets",
                     "x-y_z.0"):
            assert validate_metric_name(name) == name

    def test_invalid_names(self):
        for name in ("", ".", "a.", ".a", "a..b", "a b", "a.b!", 7, None):
            with pytest.raises(ObservabilityError):
                validate_metric_name(name)


class TestRegistration:
    def test_register_and_collect(self):
        registry = MetricsRegistry()
        registry.register("dut", FixedSource({"x": 1, "y.z": 2.5}))
        assert registry.collect() == {"dut.x": 1, "dut.y.z": 2.5}

    def test_counter_is_a_metric_source(self):
        counter = Counter("c")
        counter.count(64)
        assert isinstance(counter, MetricSource)
        registry = MetricsRegistry()
        registry.register("rx", counter)
        assert registry.collect() == {"rx.packets": 1, "rx.bytes": 64}

    def test_callable_source(self):
        registry = MetricsRegistry()
        registry.register("live", lambda: {"value": 42})
        assert registry.query("live.value") == 42

    def test_register_value_scalar(self):
        registry = MetricsRegistry()
        events = [0]
        registry.register_value("sim.events", lambda: events[0])
        events[0] = 7
        assert registry.query("sim.events") == 7

    def test_register_value_needs_two_segments(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.register_value("events", lambda: 1)

    def test_duplicate_prefix_rejected(self):
        registry = MetricsRegistry()
        registry.register("dut", FixedSource({"x": 1}))
        with pytest.raises(ObservabilityError):
            registry.register("dut", FixedSource({"y": 2}))

    def test_bad_prefix_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.register("bad name", FixedSource({"x": 1}))

    def test_non_source_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.register("dut", object())


class TestCollection:
    def test_nested_prefixes_coexist(self):
        registry = MetricsRegistry()
        registry.register("dut", FixedSource({"reboots": 0}))
        registry.register("dut.ppe", FixedSource({"processed": 9}))
        assert registry.collect() == {"dut.reboots": 0, "dut.ppe.processed": 9}

    def test_full_name_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.register("dut", FixedSource({"ppe.processed": 1}))
        registry.register("dut.ppe", FixedSource({"processed": 2}))
        with pytest.raises(ObservabilityError):
            registry.collect()

    def test_prefix_filter_is_segment_aware(self):
        registry = MetricsRegistry()
        registry.register("dut", FixedSource({"x": 1}))
        registry.register("dut2", FixedSource({"x": 2}))
        assert registry.collect(prefix="dut") == {"dut.x": 1}

    def test_collect_is_sorted(self):
        registry = MetricsRegistry()
        registry.register("b", FixedSource({"v": 1}))
        registry.register("a", FixedSource({"v": 2}))
        assert list(registry.collect()) == ["a.v", "b.v"]

    def test_bad_suffix_caught_at_collect(self):
        registry = MetricsRegistry()
        registry.register("dut", FixedSource({"bad suffix": 1}))
        with pytest.raises(ObservabilityError):
            registry.collect()

    def test_query_unknown_metric(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.query("no.such.metric")


class TestExporters:
    def test_metrics_json_schema(self):
        import json

        doc = json.loads(metrics_json({"a.b": 1, "a.c": True}))
        assert doc["schema"] == "flexsfp.metrics/1"
        assert doc["metrics"] == {"a.b": 1, "a.c": True}

    def test_metrics_jsonl(self):
        import json

        lines = metrics_jsonl({"b": 2, "a": 1}).splitlines()
        assert [json.loads(line) for line in lines] == [
            {"name": "a", "value": 1},
            {"name": "b", "value": 2},
        ]

    def test_prometheus_name_mangling(self):
        assert (
            prometheus_name("module0.ppe.nat.drops")
            == "flexsfp_module0_ppe_nat_drops"
        )

    def test_prometheus_text(self):
        text = prometheus_text({"a.b": 3, "flag": True, "app": "nat"})
        assert "# TYPE flexsfp_a_b gauge\nflexsfp_a_b 3" in text
        assert "flexsfp_flag 1" in text
        assert "# info flexsfp_app nat" in text
        assert text.endswith("\n")
