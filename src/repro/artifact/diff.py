"""The artifact-diff engine: classified divergence between two runs.

``diff_artifacts`` is the differential oracle the compiled-data-plane
roadmap depends on: given two ``flexsfp.run/1`` artifacts it answers
"are these runs *semantically* identical" — and when they are not, it
says exactly how.  Every divergence is classified:

=================  ====================================================
``metric-value``   the same metric name carries different values
``metric-set``     a semantic metric exists on only one side
``tenant-set``     the runs deployed different tenant sets (names,
                   apps, steering matches, or resource shares in the
                   ``knobs.deployment`` block)
``completeness``   the runs covered different shard sets (failures)
``timing-only``    only volatile fields differ: wall-clock timings,
                   environment fingerprints, profiler output, and
                   execution-strategy counters (flow-cache hits, batch
                   sizes, event-loop counts) that legitimately change
                   between engines without changing what the workload
                   computed
=================  ====================================================

Only the first three kinds make a diff *semantic*; a diff whose entries
are all ``timing-only`` reports two runs as equivalent.  The
execution-strategy name rules (``NONSEMANTIC_*``) encode the fast-path
contract: the compiled engine must reproduce every verdict,
drop, latency bucket and delivered byte bit-for-bit, while its cache
counters and event counts are *expected* to differ.

Comparing runs with different shard counts is well-defined because shard
seeds are a pure function of (root seed, index): the smaller run's shard
set is a prefix of the larger one's, so the common shards are compared
by semantic digest and the merged (whole-fleet) views — which aggregate
different numbers of instances — are skipped with an explicit note.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

# ----------------------------------------------------------------------
# Semantic classification of metric names
# ----------------------------------------------------------------------
# Exact names that never carry workload semantics.
NONSEMANTIC_NAMES = frozenset({"sim.events", "wall_s"})
# Prefix families: wall-clock profiler attribution and supervision
# counters (retry counts depend on injected chaos, not on results).
NONSEMANTIC_PREFIXES = ("sim.profile.", "fleet.supervisor.")
# Strategy families: flow-cache state, fast-path hit counters, and compiled
# engine counters (recipe hits, deopts) exist only when that strategy runs
# and measure the *strategy*, not the result.  A family counts only where
# the PPE publishes it, directly under the app segment
# (``<...>.ppe.<app>.<family>.<leaf>``), so a tenant of the same name
# keeps its leaves.
NONSEMANTIC_FAMILY = re.compile(
    r"(?:^|\.)ppe\.[^.]+\.(?:flow_cache|fastpath_hits|compiled)\."
)


def is_semantic_metric(name: str) -> bool:
    """True when a metric name carries workload semantics.

    Non-semantic names are engine/timing artifacts: two runs that differ
    only in these are considered equivalent by :func:`diff_artifacts`.
    """
    if name in NONSEMANTIC_NAMES:
        return False
    if name.startswith(NONSEMANTIC_PREFIXES):
        return False
    return NONSEMANTIC_FAMILY.search(name) is None


def semantic_metrics(metrics: Mapping[str, object]) -> dict[str, object]:
    """The semantic subset of a metric snapshot, sorted by name."""
    return {
        name: metrics[name] for name in sorted(metrics) if is_semantic_metric(name)
    }


def semantic_shard_digest(
    metrics: Mapping[str, object],
    summary: Mapping[str, object],
    histograms: Mapping[str, Mapping],
) -> str:
    """SHA-256 over one shard's *semantic* payload.

    The engine-agnostic sibling of :meth:`~repro.obs.scenario.
    ScenarioRun.digest`: two shards that ran the same workload under
    different engines (reference vs compiled) hash
    identically here, while any divergence in verdicts, drops, latency
    buckets, delivered bytes, or scenario summaries changes the digest.
    """
    payload = {
        "metrics": semantic_metrics(metrics),
        "summary": dict(summary),
        "histograms": {name: dict(histograms[name]) for name in sorted(histograms)},
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Diff model
# ----------------------------------------------------------------------
class DiffKind(str, Enum):
    METRIC_VALUE = "metric-value"
    METRIC_SET = "metric-set"
    TENANT_SET = "tenant-set"
    COMPLETENESS = "completeness"
    TIMING_ONLY = "timing-only"

    @property
    def semantic(self) -> bool:
        return self is not DiffKind.TIMING_ONLY


@dataclass(frozen=True)
class DiffEntry:
    """One classified divergence between artifact ``a`` and ``b``."""

    kind: DiffKind
    name: str
    a: object
    b: object

    @property
    def semantic(self) -> bool:
        return self.kind.semantic

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "name": self.name,
            "a": self.a,
            "b": self.b,
            "semantic": self.semantic,
        }


@dataclass(frozen=True)
class ArtifactDiff:
    """The full classified diff between two ``flexsfp.run/1`` artifacts."""

    entries: tuple[DiffEntry, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def identical(self) -> bool:
        return not self.entries

    @property
    def semantic_entries(self) -> tuple[DiffEntry, ...]:
        return tuple(entry for entry in self.entries if entry.semantic)

    @property
    def diverged(self) -> bool:
        """True when the runs differ *semantically* (timing-only excluded)."""
        return bool(self.semantic_entries)

    @property
    def verdict(self) -> str:
        if self.diverged:
            return "diverged"
        if self.entries:
            return "timing-only"
        return "identical"

    def counts(self) -> dict[str, int]:
        totals = {kind.value: 0 for kind in DiffKind}
        for entry in self.entries:
            totals[entry.kind.value] += 1
        return totals

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "diverged": self.diverged,
            "counts": self.counts(),
            "entries": [entry.to_dict() for entry in self.entries],
            "notes": list(self.notes),
        }


# ----------------------------------------------------------------------
# The diff itself
# ----------------------------------------------------------------------
def _payload(artifact) -> dict:
    """Accept a RunArtifact or its (possibly JSON-loaded) dict form."""
    if hasattr(artifact, "to_dict"):
        return artifact.to_dict()
    return dict(artifact)


def _canonical(value: object) -> object:
    """Normalize a value through canonical JSON for stable comparison.

    An artifact loaded from disk and one built in memory must compare
    equal: tuples become lists, dict key order is erased, and any
    ``default=str``-coerced value compares in its string form.
    """
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def _diff_mapping(
    a: Mapping[str, object],
    b: Mapping[str, object],
    prefix: str,
    entries: list[DiffEntry],
    semantic_fn=is_semantic_metric,
) -> None:
    """Name-wise diff of two flat mappings with per-name classification."""
    for name in sorted(set(a) | set(b)):
        label = f"{prefix}{name}"
        semantic = semantic_fn(name)
        if name not in a or name not in b:
            kind = DiffKind.METRIC_SET if semantic else DiffKind.TIMING_ONLY
            entries.append(
                DiffEntry(kind, label, a.get(name), b.get(name))
            )
        elif _canonical(a[name]) != _canonical(b[name]):
            kind = DiffKind.METRIC_VALUE if semantic else DiffKind.TIMING_ONLY
            entries.append(DiffEntry(kind, label, a[name], b[name]))


def _diff_deployment(
    knobs_a: Mapping | None, knobs_b: Mapping | None, entries: list[DiffEntry]
) -> None:
    """Classify divergence between two ``knobs.deployment`` blocks.

    Comparing runs with different tenant *sets* is a category error, not
    a metric drift — one ``tenant-set`` entry carries the whole verdict.
    With the same names, per-tenant app/match/share drift is still
    ``tenant-set`` (the workload itself changed).
    """
    dep_a = (knobs_a or {}).get("deployment") or {}
    dep_b = (knobs_b or {}).get("deployment") or {}
    if not dep_a and not dep_b:
        return
    tenants_a = {str(t.get("name")): t for t in dep_a.get("tenants", ())}
    tenants_b = {str(t.get("name")): t for t in dep_b.get("tenants", ())}
    if sorted(tenants_a) != sorted(tenants_b):
        entries.append(
            DiffEntry(
                DiffKind.TENANT_SET,
                "knobs.deployment.tenants",
                sorted(tenants_a),
                sorted(tenants_b),
            )
        )
        return
    for name in sorted(tenants_a):
        ta, tb = tenants_a[name], tenants_b[name]
        for field in ("app", "match", "share"):
            if _canonical(ta.get(field)) != _canonical(tb.get(field)):
                entries.append(
                    DiffEntry(
                        DiffKind.TENANT_SET,
                        f"knobs.deployment.tenants.{name}.{field}",
                        ta.get(field),
                        tb.get(field),
                    )
                )


def _completeness_view(block: Mapping | None) -> dict:
    """The coverage facts of a completeness block (retries excluded).

    Whether a shard needed a supervisor retry is operational noise; which
    shards the merged artifact actually covers is semantics.
    """
    block = block or {}
    return {
        "ok": bool(block.get("ok", True)),
        "shards": block.get("shards"),
        "completed": block.get("completed"),
        "failed_indices": list(block.get("failed_indices", ())),
    }


def diff_artifacts(a, b) -> ArtifactDiff:
    """Classify every divergence between two ``flexsfp.run/1`` artifacts.

    Accepts :class:`~repro.artifact.run.RunArtifact` instances or their
    dict/JSON-document forms interchangeably.  See the module docstring
    for the classification rules; the returned diff's :attr:`~
    ArtifactDiff.diverged` is the one-bit answer to "is configuration A
    semantically identical to configuration B".
    """
    da, db = _payload(a), _payload(b)
    entries: list[DiffEntry] = []
    notes: list[str] = []

    _diff_deployment(da.get("knobs"), db.get("knobs"), entries)

    shards_a = list(da.get("shards", ()))
    shards_b = list(db.get("shards", ()))
    same_fleet_shape = len(shards_a) == len(shards_b)

    # Merged views aggregate every shard; with different shard counts the
    # aggregates are incomparable by construction, so the common-shard
    # comparison below carries the semantics instead.
    if same_fleet_shape:
        _diff_mapping(
            dict(da.get("metrics", {})), dict(db.get("metrics", {})),
            "metrics.", entries,
        )
        _diff_mapping(
            dict(da.get("histograms", {})), dict(db.get("histograms", {})),
            "histograms.", entries,
        )
        _diff_mapping(
            da.get("summary", {}), db.get("summary", {}),
            "summary.", entries,
            semantic_fn=lambda _name: True,
        )
    else:
        notes.append(
            f"merged views not compared: {len(shards_a)} vs {len(shards_b)} "
            "shards aggregate different fleet sizes"
        )

    # Common shards compare by semantic digest — engine-agnostic, and
    # well-defined across shard counts because seeds derive from index.
    by_index_a = {int(shard["index"]): shard for shard in shards_a}
    by_index_b = {int(shard["index"]): shard for shard in shards_b}
    for index in sorted(set(by_index_a) & set(by_index_b)):
        shard_a, shard_b = by_index_a[index], by_index_b[index]
        if shard_a.get("seed") != shard_b.get("seed"):
            entries.append(
                DiffEntry(
                    DiffKind.METRIC_VALUE,
                    f"shards[{index}].seed",
                    shard_a.get("seed"),
                    shard_b.get("seed"),
                )
            )
            continue
        if shard_a.get("semantic_digest") != shard_b.get("semantic_digest"):
            summary_entries: list[DiffEntry] = []
            _diff_mapping(
                shard_a.get("summary", {}), shard_b.get("summary", {}),
                f"shards[{index}].summary.", summary_entries,
                semantic_fn=lambda _name: True,
            )
            entries.extend(summary_entries)
            if not summary_entries or not same_fleet_shape:
                entries.append(
                    DiffEntry(
                        DiffKind.METRIC_VALUE,
                        f"shards[{index}].semantic_digest",
                        shard_a.get("semantic_digest"),
                        shard_b.get("semantic_digest"),
                    )
                )

    comp_a = _completeness_view(da.get("completeness"))
    comp_b = _completeness_view(db.get("completeness"))
    if comp_a["ok"] != comp_b["ok"] or (
        same_fleet_shape
        and (
            comp_a["failed_indices"] != comp_b["failed_indices"]
            or comp_a["completed"] != comp_b["completed"]
        )
    ):
        entries.append(
            DiffEntry(DiffKind.COMPLETENESS, "completeness", comp_a, comp_b)
        )

    # Volatile sections: report, never semantic.
    for section in ("timings", "environment", "supervisor"):
        va, vb = dict(da.get(section, {})), dict(db.get(section, {}))
        if _canonical(va) != _canonical(vb):
            entries.append(DiffEntry(DiffKind.TIMING_ONLY, section, va, vb))

    return ArtifactDiff(entries=tuple(entries), notes=tuple(notes))
