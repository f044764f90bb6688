"""Property-based tests over the flow cache (the fast path's keystone).

The differential suite proves end-to-end equivalence on concrete traffic;
these properties pin the :class:`~repro.core.flowcache.FlowCache`
invariants that equivalence rests on — bounded occupancy, hit-after-insert,
LRU eviction order, and generation-stamped invalidation — across arbitrary
operation sequences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowcache import FlowCache, FlowRecipe
from repro.core.ppe import Verdict

keys = st.integers(0, 63)
capacities = st.integers(1, 16)
generations = st.integers(0, 3)


def recipe() -> FlowRecipe:
    return FlowRecipe(Verdict.PASS)


@given(capacity=capacities, inserts=st.lists(keys, max_size=200))
def test_occupancy_never_exceeds_capacity(capacity, inserts):
    cache = FlowCache(capacity=capacity)
    for key in inserts:
        cache.insert(key, recipe(), generation=0)
        assert len(cache) <= capacity
    # Evictions account exactly for the overflow beyond distinct keys.
    distinct = len(set(inserts))
    assert len(cache) == min(distinct, capacity)
    if distinct <= capacity:
        assert cache.evictions == 0


@given(capacity=capacities, inserts=st.lists(keys, max_size=200), probe=keys)
def test_hit_after_insert(capacity, inserts, probe):
    """A just-inserted key always hits at the same generation."""
    cache = FlowCache(capacity=capacity)
    for key in inserts:
        cache.insert(key, recipe(), generation=0)
    installed = recipe()
    cache.insert(probe, installed, generation=0)
    assert cache.lookup(probe, generation=0) is installed
    assert cache.hits == 1


@given(capacity=capacities, inserts=st.lists(keys, min_size=1, max_size=200))
def test_lru_eviction_order(capacity, inserts):
    """The surviving keys are exactly the most recently inserted ones."""
    cache = FlowCache(capacity=capacity)
    for key in inserts:
        cache.insert(key, recipe(), generation=0)
    survivors = []
    for key in reversed(inserts):
        if key not in survivors:
            survivors.append(key)
        if len(survivors) == capacity:
            break
    for key in survivors:
        assert key in cache
    for key in set(inserts) - set(survivors):
        assert key not in cache


@given(
    capacity=capacities,
    ops=st.lists(st.tuples(keys, generations), max_size=200),
    probe=st.tuples(keys, generations),
)
@settings(max_examples=50)
def test_generation_mismatch_always_misses(capacity, ops, probe):
    """A lookup under any generation other than the stamp is a miss that
    drops the stale entry — the table-write invalidation contract."""
    cache = FlowCache(capacity=capacity)
    for key, generation in ops:
        cache.insert(key, recipe(), generation=generation)
    key, generation = probe
    cache.insert(key, recipe(), generation=generation)
    assert cache.lookup(key, generation + 1) is None
    assert key not in cache  # stale entry evicted, not just skipped
    assert cache.invalidations >= 1
    # The next slow-path decision re-installs under the new generation.
    cache.insert(key, recipe(), generation + 1)
    assert cache.lookup(key, generation + 1) is not None


@given(inserts=st.lists(st.tuples(keys, generations), max_size=200))
def test_invalidate_flushes_everything(inserts):
    cache = FlowCache(capacity=64)
    for key, generation in inserts:
        cache.insert(key, recipe(), generation=generation)
    occupied = len(cache)
    assert cache.invalidate() == occupied
    assert len(cache) == 0
    for key, generation in inserts:
        assert cache.lookup(key, generation) is None


@given(st.lists(st.tuples(keys, st.booleans()), max_size=200))
def test_stats_bookkeeping_is_consistent(ops):
    """hits + misses counts every lookup; hit_rate stays within [0, 1]."""
    cache = FlowCache(capacity=8)
    lookups = 0
    for key, do_insert in ops:
        if do_insert:
            cache.insert(key, recipe(), generation=0)
        else:
            cache.lookup(key, generation=0)
            lookups += 1
    stats = cache.metric_values()
    assert stats["hits"] + stats["misses"] == lookups
    assert 0.0 <= stats["hit_rate"] <= 1.0
    assert stats["size"] == len(cache) <= stats["capacity"]
