"""§5.1 end-to-end — "a simple end-to-end test confirmed line-rate
performance, as the NAT function is stateless".

Streams 10 Gbps of CBR traffic (per frame size) and an IMIX mix through a
FlexSFP running the NAT at the prototype operating point, and checks that
achieved goodput equals the theoretical line-rate goodput for every frame
size with zero PPE overload drops.

A second test measures the compiled engine tier against the reference
oracle on an oversubscribed 60 B workload: fused per-flow recipes over the
struct-of-arrays burst lane must produce bit-identical simulation results
at ≥ ``COMPILED_SPEEDUP_FLOOR``× the wall-clock simulated-packets/sec.  A
third holds the same tier to ``SCENARIO_SPEEDUP_FLOOR``× on the whole
``nat-linerate`` scenario at the paper's operating point, where the PPE
keeps up and nothing queues.

Set ``FLEXSFP_METRICS_DIR=<dir>`` to export every run's full metrics
registry as ``<dir>/<tag>.jsonl`` + ``<dir>/<tag>.prom`` (CI uploads these
as build artifacts).
"""

import time

import pytest

from common import export_bench, report
from repro.apps import StaticNat
from repro.artifact.diff import semantic_shard_digest
from repro.core import FlexSFPModule
from repro.core.module import source_burst
from repro.netem import CbrSource, ImixSource
from repro.obs.scenario import ScenarioSpec, TrafficProfile
from repro.packet import make_udp
from repro.sim import Port, RateMeter, Simulator, connect, goodput_fraction
from repro.nfv import Deployment

RUN_S = 0.3e-3
SPEEDUP_RUN_S = 1.2e-3
# The compiled tier's template-burst depth, as every scenario ticks it.
TEMPLATE_BURST = source_burst("compiled", template_burst=True)
# Measured on the 2-vCPU container this repo is developed in: single
# compiled/reference pairs read 20x to 32x over ten interleaved pairs
# (median 25x; the reference lane is the divisor, and every helper frame
# it sheds lowers the ratio).  The test reports the cleanest of three
# pairs (28x to 35x over three runs), so host noise does not trip the
# floor while losing the fused lane (every frame deopting to the
# per-frame lane) does.
COMPILED_SPEEDUP_FLOOR = 20.0
# ``nat-linerate`` at 10G / 60 B / 2 ms (29,762 frames, the PPE keeping up):
# ten interleaved pairs read 124x to 290x (median 159x) on the same
# container.  When they read 43x to 49x, 16-frame bursts admitted by
# scalar replay read 3.7x to 4.3x, so losing the burst depth lands far
# under the floor.  Losing only the timeline's keep-up regime then read
# 26x to 36x, too close for a floor a noisy host can hold:
# ``tests/test_sim_timeline_property.py`` asserts that regime is taken.
SCENARIO_SPEEDUP_FLOOR = 15.0
# The speedup workload oversubscribes the PPE (14 Gbps offered into the
# prototype's 13.125 Gbps of 60 B service capacity) so the ingress queue
# stays deep and real full-size groups form.
SPEEDUP_RATE_BPS = 14e9
# Wall-clock runs per mode; the fastest is reported (simulation output is
# deterministic, so repeats only reduce scheduler/allocator noise).  The
# modes are measured in interleaved reference/compiled pairs so a slow-machine
# epoch hits both sides instead of biasing the ratio.
SPEEDUP_REPEATS = 3
FRAME_SIZES = (60, 128, 512, 1024, 1514)
KEY = b"bench-key"


def _export_metrics(tag: str, module, host, fiber) -> None:
    """Dump the run's registry when FLEXSFP_METRICS_DIR points somewhere."""
    from repro.config import get_settings

    directory = get_settings().metrics_dir
    if directory is None:
        return
    from repro._util import write_text_atomic
    from repro.obs import MetricsRegistry, metrics_jsonl, prometheus_text

    registry = MetricsRegistry()
    module.register_metrics(registry)
    registry.register("host", host)
    registry.register("fiber", fiber)
    metrics = registry.collect()
    out = directory
    out.mkdir(parents=True, exist_ok=True)
    # Atomic: a benchmark killed mid-export never leaves CI a torn artifact.
    write_text_atomic(out / f"{tag}.jsonl", metrics_jsonl(metrics) + "\n")
    write_text_atomic(out / f"{tag}.prom", prometheus_text(metrics))


def run_nat(
    frame_len: int | None,
    run_s: float = RUN_S,
    rate_bps: float = 10e9,
    burst: int = 1,
    engine: str | None = None,
) -> dict:
    """One line-rate run on tier ``engine`` (default: ``FLEXSFP_ENGINE``,
    then reference); ``frame_len=None`` means IMIX."""
    sim = Simulator()
    nat = StaticNat(capacity=1024)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    module = FlexSFPModule(
        sim, "dut", Deployment.solo(nat), auth_key=KEY, engine=engine
    )
    compiled = module.engine == "compiled"
    host = Port(sim, "host", rate_bps, queue_bytes=1 << 22)
    # On the compiled tier the sink takes batched delivery; the meter reads
    # each frame's exact wire-arrival time, so its window is identical
    # either way.
    fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 22)

    meter = RateMeter("fiber")

    def on_fiber_rx(port, pkt, size, when):
        meter.observe(when, size)

    def on_fiber_rx_burst(port, template, size, whens):
        # Uniform frames at exact stamped times: O(1) meter update that is
        # arithmetically identical to observing each frame individually.
        meter.observe_bulk(
            float(whens[0]), float(whens[-1]), len(whens), len(whens) * size
        )

    if compiled:
        fiber.attach_batch(on_fiber_rx)
        fiber.attach_burst(on_fiber_rx_burst)
    else:
        fiber.attach(on_fiber_rx)
    connect(host, module.edge_port)
    connect(module.line_port, fiber)

    # One template per frame size, cloned per emission: the built packets
    # are identical to per-call construction but skip re-parsing addresses.
    templates: dict[int, object] = {}

    def factory(index, size):
        template = templates.get(size)
        if template is None:
            template = templates[size] = make_udp(
                src_ip="10.0.0.1", payload=bytes(max(0, size - 42))
            )
        return template.copy()

    if frame_len is None:
        ImixSource(
            sim, host, rate_bps=rate_bps, stop=run_s, factory=factory, seed=3,
            burst=burst,
        )
    else:
        CbrSource(
            sim, host, rate_bps=rate_bps, frame_len=frame_len, stop=run_s,
            factory=factory, burst=burst,
            # The factory is index-independent (one template per size), so
            # the compiled tier may clone whole bursts from the template.
            template_burst=compiled,
        )
    wall_start = time.perf_counter()
    sim.run(until=run_s + 0.1e-3)
    wall_s = time.perf_counter() - wall_start
    processed = module.ppe.processed.packets
    tag = f"nat_{frame_len if frame_len is not None else 'imix'}_{module.engine}"
    _export_metrics(tag, module, host, fiber)
    lane = f"{module.app.name}.compiled."
    return {
        "frame": frame_len if frame_len is not None else "IMIX",
        "achieved_gbps": meter.bits_per_second() / 1e9,
        "expected_gbps": (
            10 * goodput_fraction(frame_len) if frame_len is not None else None
        ),
        "pps": meter.packets_per_second() / 1e6,
        "overload_drops": module.ppe.overload_drops.packets,
        "translated": module.app.counter("translated").packets,
        "verdicts": {v.value: n for v, n in module.ppe.verdict_counts.items()},
        "latency_ns": module.ppe.latency_ns.metric_values(),
        "delivered": fiber.rx.metric_values(),
        "wall_s": wall_s,
        "sim_pkts_per_wall_s": processed / wall_s if wall_s > 0 else 0.0,
        "events": sim.events_processed,
        "compiled": {
            name.removeprefix(lane): value
            for name, value in module.ppe.metric_values().items()
            if name.startswith(lane)
        },
    }


def compute_all():
    results = [run_nat(size) for size in FRAME_SIZES]
    results.append(run_nat(None))
    return results


def test_e2e_nat_line_rate(benchmark):
    results = benchmark.pedantic(compute_all, rounds=1, iterations=1)
    report(
        "§5.1 E2E: NAT at 10G line rate (One-Way-Filter, 64b @ 156.25 MHz)",
        ("frame B", "achieved Gbps", "expected Gbps", "Mpps", "PPE drops"),
        [
            (
                r["frame"],
                f"{r['achieved_gbps']:.3f}",
                f"{r['expected_gbps']:.3f}" if r["expected_gbps"] else "-",
                f"{r['pps']:.2f}",
                r["overload_drops"],
            )
            for r in results
        ],
    )
    for result in results:
        assert result["overload_drops"] == 0, result
        assert result["translated"] > 0
        if result["expected_gbps"] is not None:
            assert result["achieved_gbps"] == pytest.approx(
                result["expected_gbps"], rel=0.02
            ), result
    # The min-frame run hits the canonical 14.88 Mpps.
    assert results[0]["pps"] == pytest.approx(14.88, rel=0.02)
    export_bench(
        "e2e_nat_linerate",
        metrics={
            f"frame{r['frame']}.{key}": r[key]
            for r in results
            for key in ("achieved_gbps", "pps", "overload_drops", "translated")
        },
        summary={"frames": len(results)},
        wall_s=sum(r["wall_s"] for r in results),
    )


def _cleanest_pair(run_tier):
    """``run_tier(engine)`` on both tiers, back to back, ``SPEEDUP_REPEATS``
    times; the pair with the highest compiled/reference ratio.

    Simulated output is deterministic — every pair computes identical
    statistics — so repeats only strip scheduler/allocator noise, and
    pairing keeps a machine slowdown from landing on one mode only.
    """
    reference = compiled = None
    for _ in range(SPEEDUP_REPEATS):
        ref_run = run_tier("reference")
        comp_run = run_tier("compiled")
        if (
            reference is None
            or comp_run["sim_pkts_per_wall_s"] / ref_run["sim_pkts_per_wall_s"]
            > compiled["sim_pkts_per_wall_s"] / reference["sim_pkts_per_wall_s"]
        ):
            reference, compiled = ref_run, comp_run
    return reference, compiled


def compute_compiled_speedup():
    """Reference vs compiled on an oversubscribed 60 B workload."""
    return _cleanest_pair(
        lambda engine: run_nat(
            60,
            run_s=SPEEDUP_RUN_S,
            rate_bps=SPEEDUP_RATE_BPS,
            burst=source_burst(engine, template_burst=True),
            engine=engine,
        )
    )


def test_compiled_speedup(benchmark):
    reference, compiled = benchmark.pedantic(
        compute_compiled_speedup, rounds=1, iterations=1
    )
    speedup = (
        compiled["sim_pkts_per_wall_s"] / reference["sim_pkts_per_wall_s"]
    )
    report(
        f"Compiled tier (fused recipes, source burst={TEMPLATE_BURST}) vs "
        f"reference: simulated packets per wall-second "
        f"(60 B CBR at {SPEEDUP_RATE_BPS / 1e9:.0f}G offered, "
        f"speedup {speedup:.2f}x)",
        ("mode", "sim pkts/s", "events", "achieved Gbps", "translated", "drops"),
        [
            (
                mode,
                f"{r['sim_pkts_per_wall_s']:,.0f}",
                r["events"],
                f"{r['achieved_gbps']:.6f}",
                r["translated"],
                r["overload_drops"],
            )
            for mode, r in (("reference", reference), ("compiled", compiled))
        ],
    )
    # Identical simulation results: verdicts, drops, per-frame latency
    # distribution, delivered bytes, and the measured wire rate...
    assert compiled["translated"] == reference["translated"]
    assert reference["overload_drops"] > 0  # the PPE queue is genuinely deep
    assert compiled["overload_drops"] == reference["overload_drops"]
    assert compiled["verdicts"] == reference["verdicts"]
    assert compiled["latency_ns"] == reference["latency_ns"]
    assert compiled["delivered"] == reference["delivered"]
    assert compiled["achieved_gbps"] == pytest.approx(
        reference["achieved_gbps"], rel=1e-9
    )
    # The fused lane genuinely carried the workload: every processed frame
    # went through a recipe, none fell back to the per-frame deopt path.
    stats = compiled["compiled"]
    assert stats["bursts"] > 0 and stats["recipe_frames"] > 0, stats
    assert stats["deopt_frames"] == 0, stats
    # ...at the floor's multiple of the oracle's wall-clock throughput.
    assert speedup >= COMPILED_SPEEDUP_FLOOR, (
        f"compiled speedup {speedup:.2f}x < {COMPILED_SPEEDUP_FLOOR}x"
    )
    export_bench(
        "compiled_speedup",
        metrics={
            f"{mode}.{key}": r[key]
            for mode, r in (("reference", reference), ("compiled", compiled))
            for key in (
                "achieved_gbps", "translated", "overload_drops",
                "sim_pkts_per_wall_s", "events",
            )
        },
        knobs={"engine": "compiled", "source_burst": TEMPLATE_BURST},
        summary={
            "speedup": speedup,
            "floor": COMPILED_SPEEDUP_FLOOR,
            "recipe_frames": stats["recipe_frames"],
            "compiled_bursts": stats["bursts"],
        },
        wall_s=reference["wall_s"] + compiled["wall_s"],
    )


def _scenario_run(engine: str) -> dict:
    """``nat-linerate`` at the paper's operating point, build to metrics."""
    spec = ScenarioSpec(
        kind="nat-linerate", engine=engine, traffic=TrafficProfile(10e9, 60, 2e-3)
    )
    wall_start = time.perf_counter()
    run = spec.run()
    metrics = run.metrics()
    wall_s = time.perf_counter() - wall_start
    return {
        "wall_s": wall_s,
        "sim_pkts_per_wall_s": metrics["fiber.rx.packets"] / wall_s,
        "digest": semantic_shard_digest(metrics, run.summary, run.histograms()),
        "delivered": metrics["fiber.rx.packets"],
        "events": metrics["sim.events"],
        "deopt_frames": metrics.get("module0.ppe.nat.compiled.deopt_frames"),
        "bursts": metrics.get("module0.ppe.nat.compiled.bursts"),
    }


def test_scenario_compiled_speedup(benchmark):
    reference, compiled = benchmark.pedantic(
        _cleanest_pair, args=(_scenario_run,), rounds=1, iterations=1
    )
    speedup = compiled["sim_pkts_per_wall_s"] / reference["sim_pkts_per_wall_s"]
    report(
        f"Compiled tier vs reference on the nat-linerate scenario "
        f"(10G, 60 B, 2 ms; burst depth {TEMPLATE_BURST}; speedup {speedup:.2f}x)",
        ("mode", "wall s", "events", "delivered", "deopt frames"),
        [
            (mode, f"{r['wall_s']:.4f}", r["events"], r["delivered"], r["deopt_frames"])
            for mode, r in (("reference", reference), ("compiled", compiled))
        ],
    )
    assert compiled["digest"] == reference["digest"]
    assert compiled["delivered"] == reference["delivered"] > 0
    assert compiled["bursts"] > 0 and compiled["deopt_frames"] == 0, compiled
    assert speedup >= SCENARIO_SPEEDUP_FLOOR, (
        f"nat-linerate compiled speedup {speedup:.2f}x < {SCENARIO_SPEEDUP_FLOOR}x"
    )
    export_bench(
        "scenario_speedup",
        metrics={
            f"{mode}.{key}": r[key]
            for mode, r in (("reference", reference), ("compiled", compiled))
            for key in ("delivered", "events")
        },
        knobs={"engine": "compiled", "source_burst": TEMPLATE_BURST},
        summary={
            "speedup": speedup,
            "floor": SCENARIO_SPEEDUP_FLOOR,
            "semantic_digest": compiled["digest"],
            "compiled_bursts": compiled["bursts"],
        },
        wall_s=reference["wall_s"] + compiled["wall_s"],
    )
