"""``ServiceTimeline``: the vector admission is the scalar one, folded.

``admit_burst`` exists to be cheaper than ``admit`` per frame, never to
differ from it.  The property below generates what a port or PPE can hold
when a burst shows up — earlier reservations of mixed sizes, some matured,
a server busy past the burst head or long idle, a queue limit anywhere
from "nothing fits" to "everything fits" — and requires both forms to
agree on everything observable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def timeline_after(prior, free_at_bump: float) -> tuple[ServiceTimeline, float]:
    """A timeline holding ``prior`` reservations, and the time it is then."""
    timeline = ServiceTimeline()
    at = 0.0
    for gap, size in prior:
        at += gap
        timeline.admit(at, size, SERVICE_S, 1 << 30)
    timeline.free_at += free_at_bump
    return timeline, at


def observable(timeline: ServiceTimeline, at: float) -> tuple:
    timeline.drain(at)
    return timeline.free_at, timeline.pending_bytes, timeline.pending_frames


@settings(max_examples=300, deadline=None)
@given(
    prior=prior_frames,
    free_at_bump=st.sampled_from([0.0, SERVICE_S, 20 * SERVICE_S]),
    head_gap=gaps,
    burst_gaps=st.lists(gaps, min_size=0, max_size=24),
    size=st.integers(min_value=60, max_value=1514),
    headroom_frames=st.integers(min_value=-1, max_value=30),
)
def test_admit_burst_equals_folding_admit(
    prior, free_at_bump, head_gap, burst_gaps, size, headroom_frames
):
    folded, now = timeline_after(prior, free_at_bump)
    vector, _ = timeline_after(prior, free_at_bump)
    times = np.add.accumulate(np.asarray([now + head_gap, *burst_gaps]))
    # The limit leaves room for ``headroom_frames`` frames on top of what
    # is queued at the burst head: -1 drops everything, small values drop
    # mid-burst, large ones admit the lot.
    folded.drain(float(times[0]))
    limit = folded.pending_bytes + headroom_frames * size + size // 2

    expected_at, expected_finish = [], []
    for at in times.tolist():
        finish = folded.admit(at, size, SERVICE_S, limit)
        if finish is not None:
            expected_at.append(at)
            expected_finish.append(finish)
    admitted_at, finishes = vector.admit_burst(times, size, SERVICE_S, limit)

    assert admitted_at.tolist() == expected_at  # same frames, so same drops
    assert finishes.tolist() == expected_finish  # bit-equal, not approx
    last = float(times[-1])
    for probe in (last, last + SERVICE_S, last + 1.0):
        assert observable(vector, probe) == observable(folded, probe)


def test_both_regimes_are_reached():
    """The property is not vacuous: a paced burst chains, a sparse one and
    an overfull one replay — told apart by whether the arrival array comes
    back as is (the chain admits everything) or rebuilt."""
    times = np.add.accumulate(np.full(16, SERVICE_S / 2))
    admitted_at, _ = ServiceTimeline().admit_burst(times, 60, SERVICE_S, 1 << 20)
    assert admitted_at is times
    sparse = np.add.accumulate(np.full(16, 2 * SERVICE_S))
    admitted_at, finishes = ServiceTimeline().admit_burst(
        sparse, 60, SERVICE_S, 1 << 20
    )
    assert admitted_at is not sparse and len(finishes) == 16
    admitted_at, finishes = ServiceTimeline().admit_burst(times, 60, SERVICE_S, 200)
    assert 0 < len(finishes) < 16
