"""The per-frame call budget is a checked-in count.

The per-frame lane does a small, fixed amount of work per frame; how much
is a number that repeats exactly, so it is pinned the way the import
surface is.  For each of the four per-frame shapes the census runs the
scenario once to warm up (lazy imports, memoised service times) and once
under ``sys.setprofile``, counting every Python frame entered whose code
lives under ``src/repro`` (list/dict/set comprehension frames excluded:
3.12 inlines them), and divides by the frames the source offered.  So
does the fused shape, ``nat-linerate-compiled`` (the benchmark's
29,762-frame ``nat-linerate-fused`` run), which spends a fraction of a
call per frame: per frame, its run's fixed build calls weigh the same
whatever the burst depth.  Each figure must stay at or under its ceiling
in ``tests/snapshots/call_budget.json`` (measured + 3 %, to four
significant digits; ``--regen-golden`` rewrites the file, and the diff is
reviewed like ``import_surface.json``).  The same file pins each shape's
``sim.events`` exactly: a change that only cuts the calls an event pays
moves no event, and one that folds events shows how many.  On
``nfv-chain-compiled`` the ``_util`` layer (the validators) must also stay
under 0.1 call per frame.

On the ``chaos`` shape, where the legacy switch floods nearly every frame
past the fleet controller, the census also counts ``ABCMeta`` instance
checks (a plain ``Header`` needs none) and exceptions raised (a flooded
data frame is refused by a comparison, not by raise-and-catch).

``python -m tests.test_call_budget`` prints the whole census as JSON,
with the top callees per shape, the calls per offered frame grouped by
layer (``core`` and ``sim`` by module, every other package whole:
``core.ppe``, ``core.module``, ``sim.link``, ``packet``, ``apps``, ``nfv``
...) so a moved count names its layer, and, under ``admit_burst regimes``, the
owner x kernel split of ``nat-linerate``'s bursts at 60, 512 and 1,514 B
(``tests/test_burst_regime_census.py``), each owner beside the deepest
queue its bursts reached against its limit, both in frames; and, under
``fused slices by buckets spanned``, each compiled shape's fused slices
grouped by how many latency-histogram buckets their latencies span
(counted by wrapping ``PacketProcessingEngine._deliver_slice`` here; a
one-bucket slice costs the binning two reductions); and, under ``heap
depth``, each shape's median and deepest event heap, beside the
reference tier's on ``chaos-smoke`` and ``fleet-upgrade``, sampled before
every push (the ``heappush`` of every ``repro`` module that pushes onto
the heap, wrapped here).  CI uploads it, so the next per-frame or regime regression, a
queue creeping toward a replay, a lane change that spreads a slice's
latencies, or in-flight frames piling back into the heap, is a diff.
"""

from __future__ import annotations

import json
import statistics
import sys
from abc import ABCMeta
from collections import Counter
from dataclasses import replace
from heapq import heappush
from pathlib import Path

import pytest

import repro.sim.link  # noqa: F401 - a pusher onto the event heap
from repro.obs.scenario import ScenarioSpec, TrafficProfile

SRC = str(Path(__file__).resolve().parents[1] / "src" / "repro") + "/"
EXPECTED_FILE = Path(__file__).parent / "snapshots" / "call_budget.json"
HEADROOM = 1.03
_COMPREHENSIONS = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))
_ABC_CHECK = ABCMeta.__instancecheck__.__code__

#: shape -> the scenario whose per-frame cost is counted (seed 1).
SHAPES = {
    "chaos-smoke": ScenarioSpec(
        kind="chaos", fault_plan="smoke", engine="compiled",
        traffic=TrafficProfile(10e6, 512, 1.5),
    ),
    "fleet-upgrade": ScenarioSpec(
        kind="fleet-upgrade", engine="compiled",
        traffic=TrafficProfile(20e6, 512, 0.5),
    ),
    "nfv-chain-compiled": ScenarioSpec(
        kind="nfv-chain", engine="compiled", traffic=TrafficProfile(10e9, 60, 0.2e-3)
    ),
    "nat-linerate-reference": ScenarioSpec(
        kind="nat-linerate", engine="reference", traffic=TrafficProfile(10e9, 60, 0.2e-3)
    ),
    "nat-linerate-compiled": ScenarioSpec(
        kind="nat-linerate", engine="compiled", traffic=TrafficProfile(10e9, 60, 2e-3)
    ),
}  # fmt: skip


#: Packages whose modules are each a layer; any other package is one.
_SPLIT_PACKAGES = ("core", "sim")


def layer_of(filename: str) -> str:
    """The layer a ``src/repro`` source file belongs to (``core/ppe.py``
    is ``core.ppe``, ``packet/ip.py`` is ``packet``, ``cli.py`` is ``cli``)."""
    parts = filename[len(SRC) :].removesuffix(".py").split("/")
    if parts[0] in _SPLIT_PACKAGES and len(parts) > 1:
        return ".".join(parts[:2])
    return parts[0]


def census(shape: str) -> dict:
    """Warm up, then count one run of ``shape`` call by call."""
    spec = SHAPES[shape]
    spec.run()
    calls: Counter = Counter()
    seen = {"abc_checks": 0, "exceptions": 0}

    def on_call(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code is _ABC_CHECK:
            seen["abc_checks"] += 1
        elif code.co_filename.startswith(SRC) and code.co_name not in _COMPREHENSIONS:
            calls[code] += 1

    def on_exception(frame, event, arg):
        # Counted where it is raised (no traceback below this frame), not
        # again in every frame it passes through.  GeneratorExit is the
        # interpreter closing a generator ``any()`` left unfinished.
        if (
            event == "exception"
            and arg[2].tb_next is None
            and arg[0] is not GeneratorExit
        ):
            seen["exceptions"] += 1
        return on_exception

    def watch(frame, event, arg):
        frame.f_trace_lines = False
        return on_exception

    previous = sys.gettrace(), sys.getprofile()  # a coverage run has its own
    sys.settrace(watch)
    sys.setprofile(on_call)
    try:
        run = spec.run()
    finally:
        sys.settrace(previous[0])
        sys.setprofile(previous[1])
    metrics = run.metrics()
    offered = metrics["host.tx.packets"] + metrics.get("host.drops.packets", 0)
    bursts = sum(v for k, v in metrics.items() if k.endswith(".compiled.bursts"))
    total = sum(calls.values())
    layers: Counter = Counter()
    for code, count in calls.items():
        layers[layer_of(code.co_filename)] += count
    return {
        "frames_offered": offered,
        "events": metrics["sim.events"],
        "ppe_bursts": bursts,
        "calls": total,
        "calls_per_frame": round(total / offered, 4),
        **seen,
        "by_layer": {
            layer: round(count / offered, 4) for layer, count in layers.most_common()
        },
        "top": [
            {
                "calls": count,
                "per_frame": round(count / offered, 4),
                "where": f"{code.co_filename[len(SRC):]}:{code.co_firstlineno}:{code.co_name}",
            }
            for code, count in calls.most_common(15)
        ],
    }


def slice_spans(shape: str) -> dict:
    """One run of ``shape``'s fused slices, by latency buckets spanned."""
    from bisect import bisect_right

    import numpy as np

    from repro.core.ppe import PacketProcessingEngine

    deliver_slice = PacketProcessingEngine._deliver_slice
    spans: Counter = Counter()

    def counting(engine, record, deliver_s, enqueue_ns):
        latencies = (deliver_s * 1e9).astype(np.int64) - enqueue_ns
        bounds = engine.latency_ns.bounds
        first = bisect_right(bounds, int(latencies.min()))
        spans[bisect_right(bounds, int(latencies.max())) - first + 1] += 1
        return deliver_slice(engine, record, deliver_s, enqueue_ns)

    PacketProcessingEngine._deliver_slice = counting
    try:
        SHAPES[shape].run()
    finally:
        PacketProcessingEngine._deliver_slice = deliver_slice
    total = sum(spans.values())
    return {
        "one-bucket": f"{spans[1]} of {total}",
        "by buckets spanned": {str(n): spans[n] for n in sorted(spans)},
    }


#: Compiled shapes whose frames cross the per-frame fabric (switch,
#: impaired links, controller): the heap holds what the reference holds.
PER_FRAME_FABRIC = ("chaos-smoke", "fleet-upgrade")


def heap_depths(spec: ScenarioSpec) -> dict:
    """One run of ``spec``: the event heap's median and max depth,
    sampled before every push onto it.

    What pushes onto the heap is not one method: the engine's
    ``schedule`` / ``schedule_at`` and a port's in-flight FIFO each call
    ``heappush`` themselves.  So the name ``heappush`` is swapped for a
    sampling one in every loaded ``repro`` module that imports it.  Every
    event that fires was pushed once: fewer samples than events fired
    means a pusher went unseen, and the census refuses to report.
    """
    depths: list[int] = []

    def push(heap, entry):
        depths.append(len(heap))
        heappush(heap, entry)

    pushers = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "heappush", None) is heappush
    ]
    assert {module.__name__ for module in pushers} >= {
        "repro.sim.engine",
        "repro.sim.link",
    }
    for module in pushers:
        module.heappush = push
    try:
        run = spec.run()
    finally:
        for module in pushers:
            module.heappush = heappush
    fired = run.metrics()["sim.events"]
    assert len(depths) >= fired, f"{len(depths)} pushes seen, {fired} events fired"
    return {"median": statistics.median(depths), "max": max(depths)}


def depth_census() -> dict:
    """Every shape's heap depth, and the reference tier's where the
    compiled tier does not fuse (``chaos-smoke``, ``fleet-upgrade``)."""
    report = {shape: heap_depths(spec) for shape, spec in SHAPES.items()}
    for shape in PER_FRAME_FABRIC:
        spec = replace(SHAPES[shape], engine="reference")
        report[f"{shape} reference"] = heap_depths(spec)
    return report


@pytest.mark.parametrize("shape", PER_FRAME_FABRIC)
def test_in_flight_frames_wait_in_their_port_not_in_the_heap(shape):
    spec = SHAPES[shape]
    compiled = heap_depths(spec)
    reference = heap_depths(replace(spec, engine="reference"))
    assert compiled["median"] <= 2 * reference["median"], (compiled, reference)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_calls_per_offered_frame_stay_under_the_ceiling(shape, regen_golden):
    report = census(shape)
    figure = report["calls_per_frame"]
    expected = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}
    if regen_golden:
        expected[shape] = {
            "measured": figure,
            "ceiling": float(f"{figure * HEADROOM:.4g}"),
            "events": report["events"],
        }
        EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    assert report["frames_offered"] > 500
    assert report["events"] == expected[shape]["events"], (
        f"{shape}: {report['events']} events, pinned at "
        f"{expected[shape]['events']}"
    )
    assert figure <= expected[shape]["ceiling"], (
        f"{shape}: {figure} repro calls per offered frame, over "
        f"the ceiling {expected[shape]['ceiling']} (measured "
        f"{expected[shape]['measured']} when it was set); top callees: "
        f"{json.dumps(report['top'][:8], indent=1)}"
    )
    if shape == "nfv-chain-compiled":
        # The INT stamp checks its per-frame values inline and calls
        # ``_util.check_range`` only to raise: validation that creeps back
        # into the lane shows here first (2.44 calls per frame when the
        # records were built by their validating constructors).
        assert report["by_layer"].get("_util", 0) < 0.1, report["by_layer"]
    if shape == "chaos-smoke":
        # Nothing per frame: a handful per run (typing's own ABCs, a lazy
        # import's failed stat; a corrupted management frame would add one).
        assert report["abc_checks"] < 10
        assert report["exceptions"] * 100 < report["frames_offered"]


if __name__ == "__main__":
    from tests.test_burst_regime_census import SIZES, regime_census

    report = {shape: census(shape) for shape in SHAPES}
    regimes = report["admit_burst regimes"] = {}
    for size in SIZES:
        split, depths, _ = regime_census(size)
        regimes[f"nat-linerate-compiled {size} B"] = {
            owner: {
                **kinds,
                "deepest queue (frames)": f"{depths[owner][0]} of {depths[owner][1]}",
            }
            for owner, kinds in split.items()
        }
    report["heap depth"] = depth_census()
    report["fused slices by buckets spanned"] = {
        shape: slice_spans(shape)
        for shape, spec in SHAPES.items()
        if spec.engine == "compiled"
    }
    print(json.dumps(report, indent=1))
