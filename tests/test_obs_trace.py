"""Packet tracing, the scenario harness, and the loop profiler."""

import json
from functools import partial

import pytest

from repro.obs import (
    STAGE_APP,
    STAGE_ARBITER,
    STAGE_EGRESS,
    STAGE_MAC_RX,
    STAGE_PPE,
    LoopProfiler,
    ScenarioSpec,
    Tracer,
    validate_metric_name,
)
from repro.packet import make_udp
from repro.sim import Simulator

PIPELINE = [STAGE_MAC_RX, STAGE_ARBITER, STAGE_PPE, STAGE_APP, STAGE_EGRESS]


class TestTracerUnit:
    def test_admission_and_sampling_limit(self):
        tracer = Tracer(limit=2)
        packets = [make_udp() for _ in range(3)]
        assert tracer.admit(packets[0]) is True
        assert tracer.admit(packets[1]) is True
        assert tracer.admit(packets[2]) is False
        # Re-offering an admitted packet (second module in a chain) stays
        # traced without consuming another sampling slot.
        assert tracer.admit(packets[0]) is True
        assert tracer.traced_packets == 2

    def test_record_untraced_is_noop(self):
        tracer = Tracer(limit=0)
        packet = make_udp()
        tracer.admit(packet)
        tracer.record(packet, "ppe", "dut", 0)
        assert tracer.spans == []

    def test_header_diff(self):
        tracer = Tracer()
        packet = make_udp(src_ip="10.0.0.1", dst_ip="10.0.0.2")
        before = tracer.snapshot_headers(packet)
        packet.ipv4.src = 0xC6336401  # 198.51.100.1
        packet.udp.sport = 4096
        diff = tracer.header_diff(before, packet)
        assert set(diff) == {"ipv4.src", "udp.sport"}
        assert diff["udp.sport"][1] == 4096

    def test_jsonl_is_schema_stable(self):
        tracer = Tracer()
        packet = make_udp()
        tracer.admit(packet)
        tracer.record(packet, "ppe", "dut", 10, 20, "edge->line", verdict="pass")
        line = json.loads(tracer.to_jsonl())
        assert set(line) == {
            "trace", "seq", "stage", "component",
            "start_ns", "end_ns", "direction", "detail",
        }
        assert line["detail"] == {"verdict": "pass"}

    def test_metric_values(self):
        tracer = Tracer()
        packet = make_udp()
        tracer.admit(packet)
        tracer.record(packet, "ppe", "dut", 0)
        assert tracer.metric_values() == {"traced_packets": 1, "spans": 1}


class TestScenarioTracing:
    def test_single_module_pipeline_order(self):
        run = ScenarioSpec(trace_packets=2).run()
        assert run.tracer.trace_ids() == [0, 1]
        for trace_id in (0, 1):
            assert run.tracer.stages(trace_id) == PIPELINE

    def test_two_module_chain_span_ordering(self):
        run = ScenarioSpec(kind="nat-chain", trace_packets=1).run()
        spans = run.tracer.spans_for(0)
        # The packet crosses the full pipeline twice, in order.
        assert [s.stage for s in spans] == PIPELINE + PIPELINE
        assert [s.component for s in spans[:2]] == ["module0", "module0"]
        assert [s.component for s in spans[5:7]] == ["module1", "module1"]
        # Virtual timestamps are monotonically non-decreasing end to end.
        starts = [s.start_ns for s in spans]
        assert starts == sorted(starts)
        # The second hop starts strictly after the first hop egressed.
        assert spans[5].start_ns > spans[4].start_ns

    def test_nat_mutation_recorded(self):
        run = ScenarioSpec(trace_packets=1).run()
        app_spans = [s for s in run.tracer.spans_for(0) if s.stage == STAGE_APP]
        assert len(app_spans) == 1
        assert app_spans[0].detail["verdict"] == "pass"
        assert "ipv4.src" in app_spans[0].detail["mutations"]

    def test_fastpath_hit_miss_detail(self):
        run = ScenarioSpec(trace_packets=3, engine="compiled").run()
        ppe_spans = [
            s
            for trace_id in run.tracer.trace_ids()
            for s in run.tracer.spans_for(trace_id)
            if s.stage == STAGE_PPE
        ]
        outcomes = [s.detail.get("fastpath") for s in ppe_spans]
        assert outcomes[0] == "miss"
        assert "hit" in outcomes[1:]
        # The oracle has no flow cache, so no hit/miss to report.
        reference = ScenarioSpec(trace_packets=1, engine="reference").run()
        (span,) = [
            s for s in reference.tracer.spans_for(0) if s.stage == STAGE_PPE
        ]
        assert "fastpath" not in span.detail

    def test_batched_engine_traces_same_stages(self):
        run = ScenarioSpec(trace_packets=1, engine="compiled").run()
        assert run.tracer.stages(0) == PIPELINE

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_traced_run_matches_untraced_registry(self, engine):
        """Spans bracket the one apply from outside: every counter a traced
        frame bumps is the counter an untraced frame would have bumped."""
        from repro.artifact.diff import semantic_metrics

        traced = ScenarioSpec(trace_packets=3, engine=engine).run()
        untraced = ScenarioSpec(engine=engine).run()
        assert traced.metrics()["trace.traced_packets"] == 3
        observed = {
            name: value
            for name, value in semantic_metrics(traced.metrics()).items()
            if not name.startswith("trace.")
        }
        assert observed == semantic_metrics(untraced.metrics())
        assert traced.histograms() == untraced.histograms()
        if engine == "reference":
            # No strategy counters on the oracle: the whole registry agrees.
            assert {
                k: v for k, v in traced.metrics().items() if not k.startswith("trace.")
            } == untraced.metrics()

    def test_trace_metrics_in_registry(self):
        run = ScenarioSpec(trace_packets=2).run()
        metrics = run.metrics()
        assert metrics["trace.traced_packets"] == 2
        assert metrics["trace.spans"] == 10


class TestLoopProfiler:
    def test_attribution_by_component_class(self):
        sim = Simulator()
        profiler = LoopProfiler()
        sim.profiler = profiler

        class Widget:
            def tick(self):
                pass

        widget = Widget()
        sim.schedule(0.0, widget.tick)
        sim.schedule(1e-9, widget.tick)
        sim.run()
        values = profiler.metric_values()
        assert values["Widget.calls"] == 2
        assert values["Widget.wall_s"] >= 0.0

    def test_closures_attribute_to_the_function_that_defines_them(self):
        sim = Simulator()
        profiler = LoopProfiler()
        sim.profiler = profiler

        def probe():
            pass

        sim.schedule(0.0, probe)
        sim.schedule(0.0, lambda: None)
        sim.schedule(0.0, partial(probe))
        sim.run()
        name = type(self).__name__
        assert profiler.metric_values() == {
            f"{name}.calls": 2,
            f"{name}.wall_s": profiler.profiles[name].wall_s,
            "partial.calls": 1,
            "partial.wall_s": profiler.profiles["partial"].wall_s,
        }
        for metric in profiler.metric_values():
            validate_metric_name(metric)

    def test_report_rows(self):
        sim = Simulator()
        profiler = LoopProfiler()
        sim.profiler = profiler
        sim.schedule(0.0, lambda: None)
        sim.run()
        rows = profiler.report()
        assert len(rows) == 1
        assert rows[0]["calls"] == 1
        assert rows[0]["share"] == pytest.approx(1.0)

    def test_scenario_profile_metrics(self):
        run = ScenarioSpec(profile=True).run()
        metrics = run.metrics()
        calls = [
            name for name in metrics
            if name.startswith("sim.profile.") and name.endswith(".calls")
        ]
        assert calls, "profiler published no per-component call counts"
        assert metrics["sim.events"] > 0
