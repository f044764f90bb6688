"""Metric-merge laws: the fold the sharded runner's exactness rests on.

The bit-identity guarantee (K workers == sequential) holds because the
merge is commutative and associative, so the fixed shard-index fold
order produces the same result whatever order shards *complete* in.
These are the law tests; integer metrics keep every operation exact.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.parallel import (
    MergeKind,
    classify,
    histogram_percentile,
    merge_histogram_states,
    merge_metrics,
    merge_values,
)
from repro.sim.stats import Histogram

# A name pool covering every merge kind; values chosen per leaf so every
# generated snapshot is a plausible registry collect().
counters = st.integers(min_value=0, max_value=10**9)
_SNAPSHOT_FIELDS = {
    "mod.rx.packets": counters,
    "mod.rx.bytes": counters,
    "mod.lat.min": counters,
    "mod.lat.max": counters,
    "mod.degraded": st.booleans(),
    "mod.app": st.sampled_from(("nat", "firewall", "mirror")),
    "mod.boot_slot": st.sampled_from((0, 1)),
    "mod.rate.mean": st.floats(allow_nan=False, allow_infinity=False),
}


def _snapshot():
    # Each key present-or-absent independently: shards may expose
    # different metric sets (e.g. a degraded shard missing a source).
    return st.fixed_dictionaries(
        {},
        optional=dict(_SNAPSHOT_FIELDS),
    )


class TestClassify:
    def test_int_counter_sums(self):
        assert classify("m.rx.packets", 7) is MergeKind.SUM

    def test_bool_before_int(self):
        # bool is an int subclass; a degraded flag must never be summed.
        assert classify("m.degraded", True) is MergeKind.ANY

    def test_min_max_leaves(self):
        assert classify("m.latency.min", 5) is MergeKind.MIN
        assert classify("m.latency.max", 5.0) is MergeKind.MAX

    def test_strings_and_config_gauges_require_agreement(self):
        assert classify("m.app", "nat") is MergeKind.EQUAL
        assert classify("m.boot_slot", 1) is MergeKind.EQUAL

    def test_floats_never_merge(self):
        for leaf in ("mean", "bits_per_second", "span_s", "p50", "p99"):
            assert classify(f"m.x.{leaf}", 1.5) is MergeKind.SKIP


class TestMergeValueLaws:
    """merge_values is associative and commutative per conflict-free kind."""

    @given(a=counters, b=counters, c=counters)
    def test_sum_laws(self, a, b, c):
        name = "m.rx.packets"
        assert merge_values(name, a, b) == merge_values(name, b, a)
        assert merge_values(name, merge_values(name, a, b), c) == merge_values(
            name, a, merge_values(name, b, c)
        )

    @given(a=counters, b=counters, c=counters)
    def test_min_max_laws(self, a, b, c):
        for name in ("m.lat.min", "m.lat.max"):
            assert merge_values(name, a, b) == merge_values(name, b, a)
            assert merge_values(name, merge_values(name, a, b), c) == merge_values(
                name, a, merge_values(name, b, c)
            )

    @given(a=st.booleans(), b=st.booleans(), c=st.booleans())
    def test_any_laws(self, a, b, c):
        name = "m.degraded"
        assert merge_values(name, a, b) == merge_values(name, b, a)
        assert merge_values(name, merge_values(name, a, b), c) == merge_values(
            name, a, merge_values(name, b, c)
        )


class TestMergeMetricsLaws:
    @given(snaps=st.lists(_snapshot(), min_size=1, max_size=5), data=st.data())
    def test_permutation_invariance(self, snaps, data):
        merged = merge_metrics(snaps)
        permutation = data.draw(st.permutations(snaps))
        assert merge_metrics(permutation) == merged

    @given(snap=_snapshot())
    def test_single_snapshot_is_identity_minus_skips(self, snap):
        merged = merge_metrics([snap])
        expected = {
            name: value
            for name, value in snap.items()
            if classify(name, value) is not MergeKind.SKIP
        }
        assert merged == expected

    def test_equal_conflict_dropped_not_guessed(self):
        a = {"m.app": "nat", "m.rx.packets": 1}
        b = {"m.app": "firewall", "m.rx.packets": 2}
        merged = merge_metrics([a, b])
        assert "m.app" not in merged
        assert merged["m.rx.packets"] == 3
        assert merge_metrics([b, a]) == merged

    def test_tenant_count_is_a_gauge_not_a_counter(self):
        # Regression: a 4-shard, 2-tenant nfv-chain run reported
        # ``module0.tenants = 8`` because the leaf merged as SUM.
        assert classify("module0.tenants", 2) is MergeKind.EQUAL
        shards = [{"module0.tenants": 2, "module0.edge.rx.packets": 5}] * 4
        merged = merge_metrics(shards)
        assert merged["module0.tenants"] == 2
        assert merged["module0.edge.rx.packets"] == 20

    def test_type_drift_dropped(self):
        merged = merge_metrics([{"m.rx.packets": 1}, {"m.rx.packets": "one"}])
        assert "m.rx.packets" not in merged

    def test_union_of_names(self):
        merged = merge_metrics([{"a.rx.packets": 1}, {"b.rx.packets": 2}])
        assert merged == {"a.rx.packets": 1, "b.rx.packets": 2}

    def test_result_sorted(self):
        merged = merge_metrics([{"z.rx.packets": 1, "a.rx.packets": 2}])
        assert list(merged) == sorted(merged)


class TestHistogramMerge:
    def _record(self, histogram, samples):
        for sample in samples:
            histogram.add(sample)

    def _state(self, histogram):
        return {"bounds": list(histogram.bounds), "counts": list(histogram.counts)}

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        cut=st.integers(min_value=0, max_value=200),
    )
    def test_merge_equals_single_histogram(self, samples, cut):
        bounds = [10.0 * 4**i for i in range(8)]
        whole, left, right = (Histogram(bounds) for _ in range(3))
        self._record(whole, samples)
        cut = min(cut, len(samples))
        self._record(left, samples[:cut])
        self._record(right, samples[cut:])
        merged = merge_histogram_states(
            [{"lat": self._state(left)}, {"lat": self._state(right)}]
        )
        assert merged["lat"]["counts"] == whole.counts
        for pct in (50, 90, 99, 100):
            expected = whole.percentile(pct)
            actual = histogram_percentile(merged["lat"], pct)
            assert actual == expected or (
                math.isinf(actual) and math.isinf(expected)
            )

    def test_empty_percentile_is_zero(self):
        assert histogram_percentile({"bounds": [1.0], "counts": [0, 0]}, 99) == 0.0

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigError):
            histogram_percentile({"bounds": [1.0], "counts": [1, 0]}, 0)

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ConfigError):
            merge_histogram_states(
                [
                    {"lat": {"bounds": [1.0, 2.0], "counts": [0, 0, 0]}},
                    {"lat": {"bounds": [1.0, 4.0], "counts": [0, 0, 0]}},
                ]
            )
