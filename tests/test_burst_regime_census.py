"""Which kernel admits each line-rate burst: a census by owner.

``ServiceTimeline.admit_burst`` answers a burst with the keep-up kernel,
the busy chain (alternating busy and keep-up runs) or the scalar replay
(one ``admit`` per frame).  At the paper's operating point every burst a
module sees should take a vector kernel: the census runs ``nat-linerate``
on the compiled tier at ``TrafficProfile(10e9, size, 2e-3)`` for 60, 512
and 1,514 B frames and counts each ``admit_burst`` call by its owner
(host port, PPE, line port) and by the kernel that admitted it.  A replay
counts as ``replay`` when the burst fits the queue at its head and as
``replay: does not fit`` otherwise; only the second may occur.  The run's
semantic leaves must equal the reference tier's, so the count is taken on
a run that computes what the oracle computes.

``python -m tests.test_call_budget`` prints the census beside the call
census (CI uploads both), so the next regime regression is a diff.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.artifact.diff import semantic_metrics
from repro.core.ppe import PacketProcessingEngine
from repro.obs.scenario import ScenarioSpec, TrafficProfile
from repro.sim import engine
from repro.sim.link import Port
from tests.test_sim_timeline_property import kernels_recorded

SIZES = (60, 512, 1514)


def nat_linerate(size: int, tier: str = "compiled") -> ScenarioSpec:
    return ScenarioSpec(
        kind="nat-linerate", engine=tier, traffic=TrafficProfile(10e9, size, 2e-3)
    )


def _owner(port: Port) -> str:
    if port.name == "host":
        return "host port"
    return "line port" if port.name.endswith(".line") else port.name


@contextmanager
def regimes_recorded():
    """Count ``admit_burst`` calls as ``{owner: Counter(regime)}``."""
    census: dict[str, Counter] = {}
    owners: list[str] = []
    send_burst = Port.send_burst
    submit_burst = PacketProcessingEngine.submit_burst
    admit_burst = engine.ServiceTimeline.admit_burst

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

    def counted_admit(timeline, times, size, service_s, limit):
        timeline.drain(float(times[0]))  # admit_burst's own first step
        fits = timeline.pending_bytes + len(times) * size <= limit
        ran.clear()
        result = admit_burst(timeline, times, size, service_s, limit)
        kind = ran[-1] if ran else "replay" if fits else "replay: does not fit"
        census.setdefault(owners[-1], Counter())[kind] += 1
        return result

    with kernels_recorded() as ran:
        Port.send_burst = owned_send
        PacketProcessingEngine.submit_burst = owned_submit
        engine.ServiceTimeline.admit_burst = counted_admit
        try:
            yield census
        finally:
            Port.send_burst = send_burst
            PacketProcessingEngine.submit_burst = submit_burst
            engine.ServiceTimeline.admit_burst = admit_burst


def regime_census(size: int) -> tuple[dict[str, dict[str, int]], dict]:
    """The owner x regime split of one compiled ``nat-linerate`` run at
    ``size`` bytes, and that run's metrics."""
    with regimes_recorded() as census:
        run = nat_linerate(size).run()
    split = {owner: dict(sorted(kinds.items())) for owner, kinds in census.items()}
    return dict(sorted(split.items())), run.metrics()


@pytest.mark.parametrize("size", SIZES)
def test_only_a_burst_that_cannot_fit_replays(size):
    census, metrics = regime_census(size)
    assert set(census) == {"host port", "ppe", "line port"}, census
    assert set(census["ppe"]) == {"keep-up"}, census
    replayed = Counter()
    for kinds in census.values():
        replayed.update({k: v for k, v in kinds.items() if k.startswith("replay")})
    # Neither 1,514 B line-port burst (1,024 and 602 frames) fits the
    # 512 KiB queue whole.  The second keeps up; the first queues by a
    # rounding error somewhere, so the fold decides it frame by frame.
    assert replayed == Counter({"replay: does not fit": 1} if size == 1514 else {})
    reference = nat_linerate(size, "reference").run().metrics()
    assert semantic_metrics(metrics) == semantic_metrics(reference)
