"""A fused slice bins its latencies exactly as the per-frame lane does.

``PacketProcessingEngine._deliver_slice`` credits a whole slice to the
latency histogram at once: it bisects the slice's min and max and counts
the latencies below each bound the slice straddles.  The per-frame lane
folds ``Histogram.add(int(deliver_s * 1e9) - enqueue_ns)`` frame by frame.
These properties hold the two to the same counts over slices inside one
bucket, slices across several bounds, latencies exactly on a bound (the
``bisect_right`` tie) and slices in the overflow bucket.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.apps import create_app
from repro.core.ppe import PacketProcessingEngine, _SliceHandover
from repro.fpga.timing import TimingSpec
from repro.sim import Simulator
from repro.sim.stats import Histogram


def engine() -> PacketProcessingEngine:
    app = create_app("nat")
    return PacketProcessingEngine(
        Simulator(), app, TimingSpec(64, 156.25e6), app.pipeline_spec().pipeline_depth
    )


BOUNDS = [int(bound) for bound in engine().latency_ns.bounds]
#: Bucket k holds [EDGES[k], EDGES[k + 1]); the last one is the overflow.
EDGES = [0, *BOUNDS, 4 * BOUNDS[-1]]


def bucket(k: int) -> st.SearchStrategy:
    return st.lists(st.integers(EDGES[k], EDGES[k + 1] - 1), min_size=1, max_size=64)


one_bucket = st.integers(0, len(BOUNDS)).flatmap(bucket)
straddling = st.lists(
    st.integers(0, EDGES[-1]) | st.sampled_from(BOUNDS), min_size=2, max_size=64
)


def deliver(slices: list[list[int]], start_s: float) -> tuple[Histogram, Histogram]:
    """The engine's histogram after delivering ``slices`` as fused slices,
    and a histogram folded frame by frame over the same frames."""
    ppe = engine()
    folded = Histogram(list(ppe.latency_ns.bounds))
    handed = []
    for latencies in slices:
        deliver_s = start_s + np.arange(len(latencies)) * 67.2e-9
        enqueue_ns = (deliver_s * 1e9).astype(np.int64) - np.array(latencies, dtype=np.int64)
        record = _SliceHandover(
            lambda *args: handed.append(args), None, None, 60, deliver_s, enqueue_ns
        )
        ppe._deliver_slice(record, deliver_s, enqueue_ns)
        for when, enqueued in zip(deliver_s.tolist(), enqueue_ns.tolist()):
            folded.add(int(when * 1e9) - enqueued)
        start_s = float(deliver_s[-1]) + 1e-6
    assert len(handed) == len(slices)
    return ppe.latency_ns, folded


def assert_same_bins(slices: list[list[int]], start_s: float) -> None:
    binned, folded = deliver(slices, start_s)
    assert binned.counts == folded.counts
    assert binned.total == folded.total == sum(map(len, slices))


@given(slices=st.lists(one_bucket, min_size=1, max_size=4), start_s=st.floats(0.0, 2.0))
@example(slices=[[672] * 16], start_s=0.1)  # a keep-up slice
@example(slices=[[BOUNDS[-1], EDGES[-1] - 1]], start_s=0.0)  # overflow
def test_a_one_bucket_slice_bins_like_the_fold(slices, start_s):
    assert_same_bins(slices, start_s)


@given(slices=st.lists(straddling, min_size=1, max_size=4), start_s=st.floats(0.0, 2.0))
@example(slices=[[10, 100, 1_000, 10_000, 100_000]], start_s=0.0)  # several bounds
@example(slices=[[49, 50, 50, 99, 100]], start_s=0.0)  # ties on the bounds
@example(slices=[[50, 100]], start_s=0.5)  # min and max both on a bound
@example(slices=[[0, 3 * BOUNDS[-1]]], start_s=0.0)  # first bucket to overflow
def test_a_straddling_slice_bins_like_the_fold(slices, start_s):
    assert_same_bins(slices, start_s)
