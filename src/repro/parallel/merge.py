"""Order-independent merging of per-shard metric snapshots.

Each shard of a fleet run produces a flat ``{dotted.name: value}``
snapshot from its own :class:`~repro.obs.registry.MetricsRegistry`.
Merging them into one fleet-wide view has to be a commutative,
associative fold — the property that makes a K-worker run bit-identical
to the sequential run of the same shards, whatever order results arrive
in.

Every metric name is classified into a :class:`MergeKind` from its leaf
segment and value type:

=========  ==================================================
SUM        integer counters (packets, bytes, events, drops …)
MIN / MAX  leaves literally named ``min`` / ``max``
ANY        booleans (``degraded``, ``healthy`` flags)
EQUAL      strings and configuration-like integer gauges; kept
           only when every shard agrees, dropped otherwise
SKIP       floats (``mean``, ``bits_per_second``, ``span_s``,
           ``p50`` / ``p99``, ``control_fraction`` …; keyed on the
           type, not on a list of names) — a mean of means is not a
           mean, so derived gauges never merge; consult the
           per-shard snapshots or merged histograms instead
=========  ==================================================

Histograms merge exactly: matching bucket bounds, element-wise count
sums.  Percentiles of the *merged* distribution are then well-defined,
unlike percentile-of-percentiles.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum

from ..errors import ConfigError
from ..obs.registry import MetricValue


class MergeKind(str, Enum):
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    ANY = "any"
    EQUAL = "equal"
    SKIP = "skip"


# Leaves that are configuration/identity gauges, not additive counters:
# summing ``boot_slot`` (or a module's ``tenants`` count) across shards
# would manufacture nonsense.
_EQUAL_LEAVES = frozenset(
    {"boot_slot", "capacity", "size", "limit", "tenants", "generation", "seq"}
)

# Sentinel for an EQUAL metric whose shards disagree.  Conflict absorbs
# everything (a semilattice top), which is what keeps the fold
# associative: once two shards disagree the metric is dropped no matter
# how the remaining shards are grouped.
_CONFLICT = object()


def classify(name: str, value: MetricValue) -> MergeKind:
    """Merge kind for one metric leaf.  Pure, total, deterministic."""
    leaf = name.rsplit(".", 1)[-1]
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return MergeKind.ANY
    if isinstance(value, str):
        return MergeKind.EQUAL
    if leaf == "min":
        return MergeKind.MIN
    if leaf == "max":
        return MergeKind.MAX
    if isinstance(value, int):
        if leaf in _EQUAL_LEAVES:
            return MergeKind.EQUAL
        return MergeKind.SUM
    return MergeKind.SKIP


def merge_values(name: str, a: MetricValue, b: MetricValue) -> MetricValue | None:
    """Merge two shards' values for one metric name.

    Returns ``None`` for SKIP metrics and the conflict sentinel's
    public face (``None``) is never returned here — EQUAL conflicts are
    handled inside :func:`merge_metrics`, which needs the absorbing
    sentinel to stay associative.  Exposed for property tests.
    """
    merged = _merge_raw(classify(name, a), a, b)
    return None if merged in (None, _CONFLICT) else merged


def _merge_raw(kind: MergeKind, a: object, b: object) -> object:
    if a is _CONFLICT or b is _CONFLICT:
        return _CONFLICT
    if kind is MergeKind.SUM:
        return a + b
    if kind is MergeKind.MIN:
        return min(a, b)
    if kind is MergeKind.MAX:
        return max(a, b)
    if kind is MergeKind.ANY:
        return bool(a or b)
    if kind is MergeKind.EQUAL:
        return a if a == b else _CONFLICT
    return None


def merge_metrics(
    snapshots: Iterable[Mapping[str, MetricValue]],
) -> dict[str, MetricValue]:
    """Fold per-shard snapshots into one fleet-wide view.

    Commutative and associative over the list of snapshots: any
    permutation or grouping of the same snapshots produces the same
    mapping.  SKIP metrics and EQUAL conflicts are absent from the
    result; a name present in only some shards still merges (the fold
    treats absence as identity).
    """
    acc: dict[str, object] = {}
    kinds: dict[str, MergeKind] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            kind = classify(name, value)
            if kind is MergeKind.SKIP:
                continue
            if name not in acc:
                acc[name] = value
                kinds[name] = kind
                continue
            if kinds[name] is not kind:
                # Type drift between shards (e.g. int vs str) — the
                # metric is not meaningfully mergeable; drop it.
                acc[name] = _CONFLICT
                continue
            acc[name] = _merge_raw(kind, acc[name], value)
    return {
        name: value  # type: ignore[misc]
        for name, value in sorted(acc.items())
        if value is not _CONFLICT
    }


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
HistogramState = dict  # {"bounds": [float, ...], "counts": [int, ...]}


def merge_histogram_states(
    states: Iterable[Mapping[str, HistogramState]],
) -> dict[str, HistogramState]:
    """Element-wise merge of per-shard histogram states by name.

    Bucket bounds must match exactly across shards — histograms over
    different bucketings have no exact merge, so mismatch is an error,
    not a silent approximation.
    """
    merged: dict[str, HistogramState] = {}
    for state_map in states:
        for name, state in state_map.items():
            bounds = list(state["bounds"])
            counts = list(state["counts"])
            if name not in merged:
                merged[name] = {"bounds": bounds, "counts": counts}
                continue
            base = merged[name]
            if base["bounds"] != bounds:
                raise ConfigError(
                    f"histogram {name!r}: shard bucket bounds differ; "
                    "cannot merge exactly"
                )
            base["counts"] = [x + y for x, y in zip(base["counts"], counts)]
    return {name: merged[name] for name in sorted(merged)}


def histogram_percentile(state: Mapping[str, Sequence], pct: float) -> float:
    """Percentile of a merged histogram state (upper bucket bound).

    Exactly mirrors :meth:`repro.sim.stats.Histogram.percentile` —
    ``counts`` carries one trailing overflow bucket beyond ``bounds``,
    the threshold is the ceiling of ``total * pct / 100``, and samples
    in the overflow bucket report ``inf``.
    """
    if not 0 < pct <= 100:
        raise ConfigError("percentile must be in (0, 100]")
    bounds = state["bounds"]
    counts = state["counts"]
    total = sum(counts)
    if total == 0:
        return 0.0
    threshold = math.ceil(total * pct / 100)
    seen = 0
    for i, count in enumerate(counts):
        seen += count
        if seen >= threshold:
            return float(bounds[i]) if i < len(bounds) else math.inf
    return math.inf  # pragma: no cover - unreachable
