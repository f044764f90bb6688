"""``ServiceTimeline``: the vector admission is the scalar one, folded.

``admit_burst`` exists to be cheaper than ``admit`` per frame, never to
differ from it.  The property below generates what a port or PPE can hold
when a burst shows up — earlier reservations of mixed sizes, some matured,
a server busy past the burst head or long idle, a queue limit anywhere
from "nothing fits" to "everything fits" — and requires both forms to
agree on everything observable, right after the call and after any later
drain.  It also knows which of the three regimes each example must take
(keep-up, busy chain, scalar replay, in the order ``admit_burst`` tries
them), from their definitions in plain floats, and records the vector
kernel whose result ``admit_burst`` returned, so a regime that silently
stops being taken, or is tried out of order, fails here even though the
values agree.  The busy chain admits a burst the fold drops nothing of,
in alternating busy and keep-up runs (``fold_runs``), unless the runs'
vectors pass four times the burst.
"""

from collections import Counter
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.engine import ServiceTimeline

SERVICE_S = 51.2e-9

# Gaps between consecutive arrivals: back-to-back, inside one service
# time (the busy chain), exactly one service time, and idle gaps.
gaps = st.one_of(
    st.sampled_from([0.0, SERVICE_S, SERVICE_S / 2, 3 * SERVICE_S]),
    st.floats(min_value=0.0, max_value=4 * SERVICE_S),
)
prior_frames = st.lists(
    st.tuples(gaps, st.integers(min_value=60, max_value=1514)), max_size=12
)
# A burst is ``(keeps_up, gaps)``.  The keep-up arm is what a PPE faster
# than its line sees: the head at or past ``free_at`` and every gap at
# least one service time, the exact tie (``+ 0.0``) included.
bursts = st.one_of(
    st.tuples(st.just(False), st.lists(gaps, max_size=24)),
    st.tuples(
        st.just(True), st.lists(gaps.map(lambda gap: SERVICE_S + gap), max_size=24)
    ),
)


def timeline_after(prior, free_at_bump: float) -> tuple[ServiceTimeline, float]:
    """A timeline holding ``prior`` reservations, and the time it is then."""
    timeline = ServiceTimeline()
    at = 0.0
    for gap, size in prior:
        at += gap
        timeline.admit(at, size, SERVICE_S, 1 << 30)
    timeline.free_at += free_at_bump
    return timeline, at


def state(timeline: ServiceTimeline) -> tuple:
    return timeline.free_at, timeline.pending_bytes, timeline.pending_frames


def fold(
    timeline: ServiceTimeline, times, size: int, limit: int, service: float = SERVICE_S
):
    """The definition: ``admit`` once per arrival, in order."""
    admitted_at, finishes = [], []
    for at in times.tolist():
        finish = timeline.admit(at, size, service, limit)
        if finish is not None:
            admitted_at.append(at)
            finishes.append(finish)
    return admitted_at, finishes


def fold_runs(
    timeline: ServiceTimeline, at: list, service: float = SERVICE_S
) -> list[tuple[str, int]]:
    """The fold's runs as ``(kind, first frame)``: a busy run starts where a
    frame arrives before its predecessor finishes (or before ``free_at``),
    a keep-up run where one arrives after it; a tie stays in its run."""
    runs: list[tuple[str, int]] = []
    finish = timeline.free_at
    for index, arrival in enumerate(at):
        if arrival < finish:
            kind = "busy"
        elif arrival > finish or not runs:
            kind = "keep-up"
        else:
            kind = runs[-1][0]
        if not runs or runs[-1][0] != kind:
            runs.append((kind, index))
        finish = max(arrival, finish) + service
    return runs


def copy_of(timeline: ServiceTimeline) -> ServiceTimeline:
    twin = ServiceTimeline()
    twin.free_at, twin.pending_bytes = timeline.free_at, timeline.pending_bytes
    twin._pending.extend(timeline._pending)
    return twin


def chains(
    timeline: ServiceTimeline, at: list, size: int, limit: int, service=SERVICE_S
) -> bool:
    """Busy chain: the fold drops nothing, and the runs stay inside the work
    bound: each busy run's span to the end of the burst, plus one pass over
    the burst if a keep-up run needs it, at most four times the burst."""
    admitted, _ = fold(copy_of(timeline), np.asarray(at), size, limit, service)
    if len(admitted) < len(at):
        return False
    n = len(at)
    runs = fold_runs(timeline, at, service)
    work = sum(n - first for kind, first in runs if kind == "busy")
    if any(kind == "keep-up" for kind, _ in runs):
        work += n
    return work <= 4 * n


def keeps_up(
    timeline: ServiceTimeline, at: list, size: int, limit: int, service=SERVICE_S
) -> bool:
    """Keep-up: an idle head, one frame fits, no arrival before a finish."""
    return (
        at[0] >= timeline.free_at
        and size <= limit
        and all(b >= a + service for a, b in zip(at, at[1:]))
    )


def regime(
    timeline: ServiceTimeline, times, size: int, limit: int, service: float = SERVICE_S
) -> str:
    """The regime a burst offered to ``timeline`` (drained to its head) is
    in, in the order ``admit_burst`` tries them: keep-up, then busy chain."""
    at = times.tolist()
    if keeps_up(timeline, at, size, limit, service):
        return "keep-up"
    if chains(timeline, at, size, limit, service):
        return "busy chain"
    return "replay"


@contextmanager
def kernels_recorded():
    """Record, per ``admit_burst`` call, the regime whose result it returned:
    the vector kernel whose finishes it handed back, else ``replay``."""
    ran: list[str] = []
    results: list[tuple[str, object]] = []

    def recording(kernel, name):
        def record(*args):
            result = kernel(*args)
            if result is not None:
                results.append((name, result if name == "keep-up" else result[1]))
            return result

        return record

    def labelled(timeline, *args):
        results.clear()
        admitted_at, finishes = admit_burst(timeline, *args)
        returned = (name for name, result in results if result is finishes)
        ran.append(next(returned, "replay"))
        return admitted_at, finishes

    kernels = {"chain_reservations": "busy chain", "keepup_reservations": "keep-up"}
    originals = {attr: getattr(engine, attr) for attr in kernels}
    admit_burst = ServiceTimeline.admit_burst
    for attr, name in kernels.items():
        setattr(engine, attr, recording(originals[attr], name))
    ServiceTimeline.admit_burst = labelled
    try:
        yield ran
    finally:
        ServiceTimeline.admit_burst = admit_burst
        for attr, kernel in originals.items():
            setattr(engine, attr, kernel)


def test_admit_burst_equals_folding_admit():
    split = Counter()

    @settings(max_examples=500, deadline=None)
    @given(
        prior=prior_frames,
        free_at_bump=st.sampled_from([0.0, SERVICE_S, 20 * SERVICE_S]),
        head_gap=gaps,
        burst=bursts,
        size=st.integers(min_value=60, max_value=1514),
        headroom_frames=st.integers(min_value=-1, max_value=30),
        half_frame_slack=st.booleans(),
    )
    def check(
        prior, free_at_bump, head_gap, burst, size, headroom_frames, half_frame_slack
    ):
        folded, now = timeline_after(prior, free_at_bump)
        vector, _ = timeline_after(prior, free_at_bump)
        keeps_up, burst_gaps = burst
        head = now + head_gap
        if keeps_up:
            head = max(head, folded.free_at)
        times = np.add.accumulate(np.asarray([head, *burst_gaps]))
        # The limit leaves room for ``headroom_frames`` frames on top of
        # what is queued at the burst head: -1 drops everything, small
        # values drop mid-burst — or, on a burst that keeps up, sit between
        # one frame and the whole burst, where only the exact no-drop
        # condition admits it — and large ones admit the lot.
        folded.drain(head)
        limit = folded.pending_bytes + headroom_frames * size
        if half_frame_slack:
            limit += size // 2
        expected_regime = regime(folded, times, size, limit)
        split[expected_regime] += 1
        if expected_regime == "keep-up" and chains(folded, times.tolist(), size, limit):
            split["keep-up, chain also holds"] += 1

        expected_at, expected_finish = fold(folded, times, size, limit)
        ran.clear()
        admitted_at, finishes = vector.admit_burst(times, size, SERVICE_S, limit)
        # The kernel that produced the result is the one the order names.
        assert ran == [expected_regime]

        assert admitted_at.tolist() == expected_at  # same frames, so same drops
        assert finishes.tolist() == expected_finish  # bit-equal, not approx
        # A vector regime hands the arrival array back as is; the replay
        # rebuilds it.
        assert (admitted_at is times) == (expected_regime != "replay")
        assert state(vector) == state(folded)  # what the fold leaves, undrained
        last = float(times[-1])
        for probe in (last, last + SERVICE_S, last + 1.0):
            vector.drain(probe)
            folded.drain(probe)
            assert state(vector) == state(folded)

    with kernels_recorded() as ran:
        check()
    print(f"regime split: {dict(split)}")
    assert min(split[r] for r in ("busy chain", "keep-up", "replay")) >= 50, split
    assert split["keep-up, chain also holds"] >= 10, split


def test_three_regimes_are_told_apart():
    """Hand-built bursts, one regime each, in the order they are tried.

    A paced burst (arrivals inside the running service) can chain but not
    keep up; a sparse one keeps up (the busy chain would take it as one
    keep-up run); one whose every arrival ties its predecessor's finish
    holds both and keeps up, since keep-up is tried first on an idle head
    (the same floats either way); under a queue one frame deep it can only
    keep up.  One early frame in a sparse burst is a short busy run
    between two keep-up runs; a paced head before a sparse tail ends in a
    keep-up run; a busy run whose every other arrival ties the running
    finish stays one run (split at each tie, it would pass the work
    bound).  A sparse burst that stumbles at every other frame needs eight
    busy runs, past the bound, and replays, as does a queue too shallow
    for a paced one.  A paced burst queues at most half of itself, eight
    frames at its last arrival: a queue exactly that deep chains it (it
    never holds the whole burst), one byte less drops that frame.  So
    does a burst arriving behind seven frames still queued from a prior
    one, which drain while it queues: its peak is its own sixteen frames.
    ``pending_frames`` right after the call is the fold's: the starts
    still waiting, one frame after a keep-up run.
    """
    paced = np.add.accumulate(np.full(16, SERVICE_S / 2))
    sparse = np.add.accumulate(np.full(16, 2 * SERVICE_S))
    tied = np.add.accumulate(np.asarray([1.0, *[SERVICE_S] * 15]))
    stumble = sparse.copy()
    stumble[9] = stumble[8] + SERVICE_S / 2
    stumbling = sparse.copy()
    stumbling[1::2] = stumbling[::2] + SERVICE_S / 2
    paced_then_sparse = np.concatenate([paced[:8], paced[7] + sparse[:8]])
    tie_then_early, finish = [0.0], SERVICE_S  # each even frame ties a finish
    for index in range(1, 16):
        at = finish if index % 2 == 0 else tie_then_early[-1] + SERVICE_S / 2
        tie_then_early.append(at)
        finish = max(at, finish) + SERVICE_S
    tie_then_early = np.asarray(tie_then_early)
    behind = paced + paced[-1]  # arrives while paced's last seven frames queue
    cases = [  # regime, arrivals, size, limit, frames admitted, frames left pending
        # [, the arrivals admitted first at 60 B]
        ("busy chain", paced, 60, 1 << 20, 16, 8),  # starts past the last arrival
        ("keep-up", tied, 60, 1 << 20, 16, 1),  # chains too: all matured but the last
        ("keep-up", sparse, 60, 1 << 20, 16, 1),
        ("keep-up", sparse, 1514, 1514, 16, 1),  # one frame fits, sixteen never would
        ("keep-up", tied, 60, 60, 16, 1),
        ("busy chain", stumble, 60, 1 << 20, 16, 1),  # keep-up, busy, keep-up
        ("busy chain", paced_then_sparse, 60, 1 << 20, 16, 1),
        ("busy chain", tie_then_early, 60, 1 << 20, 16, 1),  # ties stay busy
        ("replay", stumbling, 60, 1 << 20, 16, 1),  # 16 + 64 of vectors > 4 x 16
        ("busy chain", paced, 60, 480, 16, 8),  # peaks at the limit
        ("busy chain", behind, 60, 960, 16, 16, paced),  # 420 B at its head
        ("replay", paced, 60, 479, 15, 7),  # drops its last frame
        ("replay", behind, 60, 959, 15, 15, paced),
        ("replay", paced, 60, 200, 11, 3),  # tail drops mid-burst
        ("replay", sparse, 60, 59, 0, 0),
    ]
    runs = {
        "stumble": fold_runs(ServiceTimeline(), stumble.tolist()),
        "paced_then_sparse": fold_runs(ServiceTimeline(), paced_then_sparse.tolist()),
        "stumbling": fold_runs(ServiceTimeline(), stumbling.tolist()),
        "tie_then_early": fold_runs(ServiceTimeline(), tie_then_early.tolist()),
    }
    assert runs["tie_then_early"] == [("keep-up", 0), ("busy", 1)]
    assert runs["stumble"] == [("keep-up", 0), ("busy", 9), ("keep-up", 10)]
    assert runs["paced_then_sparse"] == [("keep-up", 0), ("busy", 1), ("keep-up", 11)]
    assert [first for kind, first in runs["stumbling"] if kind == "busy"] == [
        *range(1, 16, 2)
    ]
    for expected_regime, times, size, limit, admitted, left_pending, *prior in cases:
        folded, vector = ServiceTimeline(), ServiceTimeline()
        for at in prior[0].tolist() if prior else ():
            folded.admit(at, 60, SERVICE_S, 1 << 20)
            vector.admit(at, 60, SERVICE_S, 1 << 20)
        assert regime(folded, times, size, limit) == expected_regime
        expected_at, expected_finish = fold(folded, times, size, limit)
        with kernels_recorded() as ran:
            admitted_at, finishes = vector.admit_burst(times, size, SERVICE_S, limit)
        assert ran == [expected_regime]
        assert len(finishes) == len(expected_at) == admitted
        assert finishes.tolist() == expected_finish
        assert (admitted_at is times) == (expected_regime != "replay")
        assert state(vector) == state(folded)
        assert vector.pending_frames == left_pending


def test_a_line_port_burst_behind_the_ppe_runs_vector():
    """The line port of a 60 B ``nat-linerate`` module, rebuilt in floats.

    The host port serialises a 1,024-frame source burst at the port rate
    (67.2 ns a frame), the PPE finishes each frame 57.6 ns after it
    arrives, and the pipeline (38.4 ns) and the transceiver (40 ns) add
    their latency.  Each arrival then ties its predecessor's finish on the
    line port up to a rounding error (1e-22 to 1e-20 s) either way, so the
    port idles at a few frames and queues at hundreds: a single busy chain
    breaks at frame 5 and keep-up at frame 1, and the burst used to replay.
    In runs it is five vector runs, bit-equal to the fold.
    """
    port, ppe = 67.2e-9, 57.6e-9
    sent = np.add.accumulate(np.asarray([0.0, *[port] * 1023]))
    at_ppe = (sent + port) + 50e-9
    times = ((at_ppe + ppe) + 38.4e-9) + 40e-9
    folded, vector = ServiceTimeline(), ServiceTimeline()
    gaps = (times[1:] - (times[:-1] + port)).tolist()
    assert min(gaps) < 0 < max(gaps) and max(map(abs, gaps)) < 1e-19
    assert fold_runs(folded, times.tolist(), port) == [
        ("keep-up", 0), ("busy", 1), ("keep-up", 5), ("busy", 111), ("keep-up", 454)
    ]  # fmt: skip
    limit = 1 << 19  # the line port's queue
    assert regime(folded, times, 60, limit, port) == "busy chain"
    expected_at, expected_finish = fold(folded, times, 60, limit, port)
    with kernels_recorded() as ran:
        admitted_at, finishes = vector.admit_burst(times, 60, port, limit)
    assert ran == ["busy chain"]
    assert admitted_at is times
    assert finishes.tolist() == expected_finish
    assert state(vector) == state(folded)
