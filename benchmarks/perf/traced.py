"""The traced pass: per-layer self times and the counts that go with them.

``trace_repeats`` untraced repeats give the overhead ratio's base; then the
workload runs as many times again, each under a fresh :class:`trace.LayerTrace`,
and the repeat with the smallest traced wall clock (the one the host
disturbed least) is the one reported, so the span identity holds for the
numbers printed.  ``fleet-upgrade-cli`` cannot be wrapped from outside its
subprocess: its layers are traced on the same shards run in-process one
after the other, and the CLI's own steps (``parallel``, ``artifact``,
``cli``) are staged and timed one by one.

Times here are raw host seconds, not scaled by the yardstick: they carry
no bound, and what they are for is their share of the traced wall clock.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from trace import LayerTrace

import workloads as wl
from measure import WARMUP_SHARE, Repeats, run_inprocess


#: Measured only on ``fleet-upgrade-cli``, by staging the CLI's steps in-process.
STAGED = (
    "parallel.shard_s",
    "parallel.run_s",
    "parallel.overhead_s",
    "parallel.merge_s",
    "parallel.supervisor_retries",
    "artifact.build_s",
    "artifact.serialise_s",
    "artifact.load_s",
    "artifact.diff_s",
    "artifact.bytes",
    "cli.import_s",
)


def traced_pass(workload, request) -> dict:
    repeats = Repeats(workload, request)
    stages: dict[str, float] = {}
    trace_id = f"{workload.name}/seed{request['seed']}"
    if workload.cli:
        untraced, best = _trace_fleet_shards(workload, request, repeats, stages, trace_id)
    else:
        run_inprocess(
            workload, workload.spec(request["seed"], request["scale"] * WARMUP_SHARE)
        )
        walls = [r.wall_s for r in (repeats.one() for _ in range(request["trace_repeats"])) if r]
        untraced = min(walls, default=0.0)
        best = None
        for index in range(request["trace_repeats"]):
            trace = LayerTrace(f"{trace_id}/{index}")
            with trace:
                repeat = repeats.one(traced_under=trace)
            if repeat and (best is None or repeat.wall_s < best[1]):
                best = (trace, repeat.wall_s, repeat.metrics, repeat.summary)
    result = repeats.ledger()
    if repeats.failed or best is None:
        return result
    trace, _wall_s, metrics, summary = best
    if request.get("spans"):
        trace.write(request["spans"])
    spans = trace.summary()
    layers = layer_metrics(spans, metrics, summary, untraced, stages)
    failures = separation_failures(workload, layers)
    if failures:
        repeats.fail("layer separation", failures)
        result = repeats.ledger()
    result["layers"] = layers
    result["trace"] = {
        "id": spans["trace_id"],
        "spans": spans["spans"],
        "wall_s": spans["wall_s"],
        "untraced_wall_s": untraced,
        "unattributed_owners": dict(
            sorted(trace.unattributed_owners.items(), key=lambda kv: -kv[1])[:5]
        ),
    }
    return result


def _trace_fleet_shards(workload, request, repeats: Repeats, stages: dict, trace_id: str):
    """Stage the CLI's steps, then trace its shards in-process."""
    from repro.artifact import diff_artifacts, load_artifact
    from repro.parallel import merge_metrics, run_shard, run_sharded

    spec = workload.fleet_spec(request["seed"]).resolved()
    tmp = Path(request["tmp"])

    def timed(stage: str, fn, *args, **kwargs):
        start = perf_counter()
        value = fn(*args, **kwargs)
        stages[stage] = perf_counter() - start
        return value

    def all_shards():
        gc.collect()
        return [run_shard((spec, index)) for index in range(spec.shards)]

    repeats.attempted += 1
    try:
        loops = []
        for _ in range(request["trace_repeats"]):
            plain = timed("parallel.shard_s", all_shards)
            loops.append(stages["parallel.shard_s"])
        stages["parallel.shard_s"] = min(loops)
        result = timed("parallel.run_s", run_sharded, spec, workers=wl.FLEET_WORKERS)
        timed("parallel.merge_s", merge_metrics, [s.metrics for s in plain])
        artifact = timed("artifact.build_s", result.to_artifact)
        document = timed("artifact.serialise_s", artifact.document)
        (tmp / "staged-a.json").write_text(document)
        (tmp / "staged-b.json").write_text(result.to_artifact().document())
        loaded = timed("artifact.load_s", load_artifact, tmp / "staged-a.json")
        other = load_artifact(tmp / "staged-b.json")
        diff = timed("artifact.diff_s", diff_artifacts, loaded, other)
        stages["artifact.bytes"] = len(document.encode())
        stages["parallel.supervisor_retries"] = result.supervisor.get("retries", 0)
        stages["parallel.overhead_s"] = (
            stages["parallel.run_s"] - stages["parallel.shard_s"] / wl.FLEET_WORKERS
        )
        imports = []
        for _ in range(3):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
            imports.append(perf_counter() - start)
        stages["cli.import_s"] = statistics.median(imports)
        failures = wl.artifact_failures(json.loads(document))
        if diff.verdict not in ("identical", "timing-only"):
            failures.append(f"staged artifacts differ: {diff.verdict}")
        if [s.digest for s in plain] != list(result.digests):
            failures.append("in-process shards and run_sharded disagree on digests")
    except Exception:
        failures = [traceback.format_exc(limit=8)]
    if failures:
        repeats.fail("staged fleet run", failures)
        return 0.0, None

    best = None
    for index in range(request["trace_repeats"]):
        repeats.attempted += 1
        trace = LayerTrace(f"{trace_id}/{index}")
        try:
            gc.collect()
            with trace:
                traced = []
                for shard in range(spec.shards):
                    with trace.root():
                        traced.append(run_shard((spec, shard)))
            if [s.digest for s in traced] != [s.digest for s in plain]:
                raise RuntimeError("tracing changed a shard digest")
        except Exception:
            repeats.fail("traced fleet shards", [traceback.format_exc(limit=8)])
            return 0.0, None
        wall = trace.summary()["wall_s"]
        if best is None or wall < best[1]:
            best = (trace, wall, merge_metrics([s.metrics for s in traced]), {})
    return stages["parallel.shard_s"], best


# ----------------------------------------------------------------------
# Per-layer metrics: span times, and counts from the run's own registry
# ----------------------------------------------------------------------
def layer_metrics(spans, metrics, summary, untraced_wall_s, stages) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json, by name.

    Times are host seconds from the spans; counts come from the run's
    registry (or its span counts) and repeat exactly.  A layer the
    workload never enters reads zero.
    """
    self_s, calls = spans["self_s"], spans["calls"]
    total = wl.total

    def ratio(a, b):
        return a / b if b else 0.0

    events = total(metrics, "sim.events")
    processed = total(metrics, ".processed.packets")
    switched = sum(
        total(metrics, f"switch.{k}.packets") for k in ("forwarded", "flooded", "filtered")
    )
    hits = total(metrics, ".flow_cache.hits")
    lookups = hits + total(metrics, ".flow_cache.misses")
    out = {f"{layer}.self_s": value for layer, value in self_s.items()}
    out.update(
        {
            "sim.engine.events": events,
            "sim.engine.events_per_pkt": ratio(events, processed),
            "sim.engine.ns_per_event": ratio(self_s["sim.engine"] * 1e9, events),
            "sim.link.calls": calls["sim.link"],
            "sim.link.tx_pkts": total(metrics, ".tx.packets"),
            "sim.link.drop_pkts": total(metrics, ".drops.packets"),
            "packet.calls": calls["packet"],
            "netem.traffic.frames_offered": total(metrics, "host.tx.packets")
            + total(metrics, "host.drops.packets"),
            "netem.impairments.calls": calls["netem.impairments"],
            "netem.impairments.impaired_pkts": summary.get("packets_lost", 0),
            "switch.legacy.frames": switched,
            "switch.legacy.flood_share": ratio(
                total(metrics, "switch.flooded.packets"), switched
            ),
            "nfv.crossbar.steered_pkts": total(metrics, ".steered.packets"),
            "core.module.calls": calls["core.module"],
            "core.module.downtime_drop_pkts": total(metrics, "downtime_drops.packets"),
            "core.ppe.calls": calls["core.ppe"],
            "core.ppe.processed_pkts": processed,
            "core.ppe.fused_share": ratio(
                total(metrics, ".compiled.recipe_frames"), processed
            ),
            "core.ppe.overload_drop_pkts": total(metrics, "overload_drops.packets"),
            "core.flowcache.lookups": lookups,
            "core.flowcache.hit_rate": ratio(hits, lookups),
            "core.controlplane.commands": total(
                metrics, "control_plane.commands_handled"
            ),
            "fleet.retries": total(metrics, "fleet.retries.packets"),
            "fleet.timeouts": total(metrics, "fleet.timeouts.packets"),
            "hls.compiles": calls["hls"],
            "obs.registry.collects": calls["obs.registry"],
            "trace.overhead_ratio": ratio(spans["wall_s"], untraced_wall_s),
            "trace.unattributed_share": ratio(spans["unattributed_s"], spans["wall_s"]),
        }
    )
    for name in STAGED:
        out[name] = stages.get(name, 0)
    return out


def separation_failures(workload, layers: dict) -> list[str]:
    """The workloads must separate the layers the way they were designed to.

    Only counts are checked here (they repeat exactly); the time shares
    that go with them are in the README's baseline table.
    """
    failures = []

    def expect(condition: bool, what: str) -> None:
        if not condition:
            failures.append(what)

    fused = layers["core.ppe.fused_share"]
    per_pkt = layers["sim.engine.events_per_pkt"]
    if workload.name == "nat-linerate-fused":
        expect(fused == 1.0, f"fused_share {fused} != 1.0")
        expect(per_pkt < 1, f"events_per_pkt {per_pkt} >= 1")
    elif workload.name == "nfv-chain-mix":
        expect(fused == 0.0, f"fused_share {fused} != 0.0")
    elif workload.name == "chaos-smoke":
        # 16 is the floor (every frame processed); fault-induced downtime
        # shrinks the denominator, so most seeds read 30 to 50.
        expect(per_pkt > 10, f"events_per_pkt {per_pkt} <= 10")
    return failures
