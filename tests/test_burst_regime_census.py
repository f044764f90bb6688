"""Which kernel admits each line-rate burst: a census by owner.

``ServiceTimeline.admit_burst`` answers a burst with the keep-up kernel,
the busy chain (alternating busy and keep-up runs) or the scalar replay
(one ``admit`` per frame).  At the paper's operating point every burst a
module sees should take a vector kernel: the census runs ``nat-linerate``
on the compiled tier at ``TrafficProfile(10e9, size, 2e-3)`` for 60, 512
and 1,514 B frames and counts each ``admit_burst`` call by its owner
(host port, PPE, line port) and by the kernel whose result it returned.
None may replay: no arrival at any of them finds its queue full, so every
burst takes a vector kernel, 4,096 frames deep or not.  The run's semantic
leaves must equal the reference tier's, so the count is taken on a run
that computes what the oracle computes.

``python -m tests.test_call_budget`` prints the census beside the call
census (CI uploads both), with each owner's deepest queue against its
limit in frames, so a burst drifting toward a replay is a diff before it
costs a fold.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.artifact.diff import semantic_metrics
from repro.core.ppe import PacketProcessingEngine
from repro.obs.scenario import ScenarioSpec, TrafficProfile
from repro.sim.engine import ServiceTimeline
from repro.sim.link import Port
from tests.test_sim_timeline_property import copy_of, kernels_recorded

SIZES = (60, 512, 1514)


def nat_linerate(size: int, tier: str = "compiled") -> ScenarioSpec:
    return ScenarioSpec(
        kind="nat-linerate", engine=tier, traffic=TrafficProfile(10e9, size, 2e-3)
    )


def _owner(port: Port) -> str:
    if port.name == "host":
        return "host port"
    return "line port" if port.name.endswith(".line") else port.name


def deepest_queue(timeline, times, size: int, service_s: float, limit: int) -> int:
    """The most frames queued at any arrival when ``timeline``'s fold takes
    the burst, the arriving frame's included (counted on a copy)."""
    twin = copy_of(timeline)
    deepest = 0
    for at in times.tolist():
        twin.admit(at, size, service_s, limit)
        deepest = max(deepest, twin.pending_frames)
    return deepest


@contextmanager
def regimes_recorded():
    """Count ``admit_burst`` calls as ``{owner: Counter(regime)}``, and keep
    each owner's deepest queue as ``{owner: [frames, limit in frames]}``."""
    census: dict[str, Counter] = {}
    depths: dict[str, list[int]] = {}
    owners: list[str] = []
    send_burst = Port.send_burst
    submit_burst = PacketProcessingEngine.submit_burst

    def owned_send(port, *args, **kwargs):
        owners.append(_owner(port))
        try:
            return send_burst(port, *args, **kwargs)
        finally:
            owners.pop()

    def owned_submit(ppe, *args, **kwargs):
        owners.append("ppe")
        try:
            return submit_burst(ppe, *args, **kwargs)
        finally:
            owners.pop()

    with kernels_recorded() as ran:
        admit_burst = ServiceTimeline.admit_burst  # the labelled one

        def counted_admit(timeline, times, size, service_s, limit):
            timeline.drain(float(times[0]))  # admit_burst's own first step
            deepest = deepest_queue(timeline, times, size, service_s, limit)
            result = admit_burst(timeline, times, size, service_s, limit)
            owner = owners[-1]
            census.setdefault(owner, Counter())[ran[-1]] += 1
            depth = depths.setdefault(owner, [0, limit // size])
            depth[0] = max(depth[0], deepest)
            return result

        Port.send_burst = owned_send
        PacketProcessingEngine.submit_burst = owned_submit
        ServiceTimeline.admit_burst = counted_admit
        try:
            yield census, depths
        finally:
            Port.send_burst = send_burst
            PacketProcessingEngine.submit_burst = submit_burst
            ServiceTimeline.admit_burst = admit_burst


def regime_census(size: int) -> tuple[dict[str, dict[str, int]], dict, dict]:
    """The owner x regime split of one compiled ``nat-linerate`` run at
    ``size`` bytes, each owner's deepest queue against its limit (both in
    frames), and that run's metrics."""
    with regimes_recorded() as (census, depths):
        run = nat_linerate(size).run()
    split = {owner: dict(sorted(kinds.items())) for owner, kinds in census.items()}
    return dict(sorted(split.items())), dict(sorted(depths.items())), run.metrics()


@pytest.mark.parametrize("size", SIZES)
def test_no_line_rate_burst_replays(size):
    census, depths, metrics = regime_census(size)
    assert set(census) == {"host port", "ppe", "line port"}, census
    assert set(census["ppe"]) == {"keep-up"}, census
    replayed = {owner: kinds for owner, kinds in census.items() if "replay" in kinds}
    assert replayed == {}, (census, depths)
    reference = nat_linerate(size, "reference").run().metrics()
    assert semantic_metrics(metrics) == semantic_metrics(reference)
