"""Property-based tests for the artifact-diff engine and spec digests.

The diff is the differential oracle everything else trusts, so its
algebra is pinned with hypothesis rather than examples: reflexivity
(every artifact is identical to itself), symmetry of the divergence
verdict and the diverged name set, stability under JSON round-trips
(an artifact loaded from disk diffs exactly like the in-memory one),
and spec-digest invariance under field reordering.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import (
    RunArtifact,
    diff_artifacts,
    is_semantic_metric,
    semantic_shard_digest,
    spec_digest_of,
)

# ----------------------------------------------------------------------
# Strategies: small but adversarial flexsfp.run/1 payloads
# ----------------------------------------------------------------------
metric_names = st.sampled_from(
    [
        "fiber.rx.packets",
        "module0.ppe.nat.drops",
        "module0.ppe.nat.processed.bytes",
        "fleet.repairs",
        # Deliberately include non-semantic names so diffs mix kinds.
        "sim.events",
        "module0.ppe.nat.flow_cache.hits",
        "module0.tenant.scrub.ppe.sanitizer.compiled.deopt_frames",
        "sim.profile.Simulator.wall_s",
    ]
)
metric_values = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
metrics_dicts = st.dictionaries(metric_names, metric_values, max_size=6)

summary_dicts = st.dictionaries(
    st.sampled_from(["packets_sent", "packets_lost", "repairs", "watchdog_reboots"]),
    st.integers(0, 10_000),
    max_size=4,
)

histogram_states = st.dictionaries(
    st.sampled_from(["module0.ppe.nat.latency_ns", "module1.ppe.nat.latency_ns"]),
    st.fixed_dictionaries(
        {
            "bounds": st.lists(st.integers(1, 100), min_size=1, max_size=3),
            "counts": st.lists(st.integers(0, 50), min_size=1, max_size=3),
        }
    ),
    max_size=2,
)


@st.composite
def shard_lists(draw):
    count = draw(st.integers(1, 3))
    shards = []
    for index in range(count):
        metrics = draw(metrics_dicts)
        summary = draw(summary_dicts)
        shards.append(
            {
                "index": index,
                "seed": draw(st.integers(0, 99)),
                "digest": f"{draw(st.integers(0, 2**32)):064x}",
                "semantic_digest": semantic_shard_digest(metrics, summary, {}),
                "summary": summary,
            }
        )
    return shards


@st.composite
def artifacts(draw):
    shards = draw(shard_lists())
    spec = {
        "kind": "nat-linerate",
        "seed": draw(st.integers(0, 99)),
        "shards": len(shards),
    }
    return RunArtifact(
        source="property-test",
        spec=spec,
        spec_digest=spec_digest_of(spec),
        seed=spec["seed"],
        knobs={"engine": "reference", "shards": len(shards)},
        metrics=draw(metrics_dicts),
        histograms=draw(histogram_states),
        shards=tuple(shards),
        completeness={
            "ok": draw(st.booleans()),
            "shards": len(shards),
            "completed": len(shards),
            "failed": [],
            "failed_indices": [],
            "resumed": [],
            "retries": draw(st.integers(0, 3)),
        },
        summary=draw(summary_dicts),
        timings={"wall_s": draw(st.floats(0, 10, allow_nan=False))},
        environment={"python": draw(st.sampled_from(["3.10.1", "3.12.0"]))},
    )


# ----------------------------------------------------------------------
# diff_artifacts algebra
# ----------------------------------------------------------------------
@given(artifact=artifacts())
@settings(max_examples=60, deadline=None)
def test_diff_is_reflexive(artifact):
    diff = diff_artifacts(artifact, artifact)
    assert diff.identical
    assert not diff.diverged
    assert diff.verdict == "identical"


@given(a=artifacts(), b=artifacts())
@settings(max_examples=60, deadline=None)
def test_diverged_verdict_is_symmetric(a, b):
    forward = diff_artifacts(a, b)
    backward = diff_artifacts(b, a)
    assert forward.diverged == backward.diverged
    assert forward.identical == backward.identical
    assert forward.verdict == backward.verdict


@given(a=artifacts(), b=artifacts())
@settings(max_examples=60, deadline=None)
def test_diverged_name_set_is_symmetric(a, b):
    forward = {entry.name for entry in diff_artifacts(a, b).semantic_entries}
    backward = {entry.name for entry in diff_artifacts(b, a).semantic_entries}
    assert forward == backward


@given(a=artifacts(), b=artifacts())
@settings(max_examples=60, deadline=None)
def test_diff_survives_json_round_trip(a, b):
    """Artifacts loaded from their JSON documents diff identically."""
    a_doc = RunArtifact.from_dict(json.loads(a.document()))
    b_doc = RunArtifact.from_dict(json.loads(b.document()))
    original = diff_artifacts(a, b)
    reloaded = diff_artifacts(a_doc, b_doc)
    assert original.verdict == reloaded.verdict
    assert [e.name for e in original.entries] == [e.name for e in reloaded.entries]
    assert [e.kind for e in original.entries] == [e.kind for e in reloaded.entries]


@given(artifact=artifacts())
@settings(max_examples=60, deadline=None)
def test_diff_accepts_dict_and_object_forms_interchangeably(artifact):
    as_dict = artifact.to_dict()
    assert diff_artifacts(artifact, as_dict).identical
    assert diff_artifacts(as_dict, artifact).identical


@given(artifact=artifacts(), wall=st.floats(0, 100, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_volatile_sections_never_diverge(artifact, wall):
    from dataclasses import replace

    retimed = replace(
        artifact,
        timings={"wall_s": wall},
        environment={"python": "9.9.9", "machine": "quantum"},
        supervisor={"completed": 0, "retried": 99},
    )
    diff = diff_artifacts(artifact, retimed)
    assert not diff.diverged
    assert artifact.artifact_digest() == retimed.artifact_digest()


# ----------------------------------------------------------------------
# Spec digest stability
# ----------------------------------------------------------------------
spec_payloads = st.dictionaries(
    st.sampled_from(
        ["kind", "seed", "shards", "engine", "fault_plan", "device", "app"]
    ),
    st.one_of(
        st.integers(0, 100), st.booleans(), st.sampled_from(["nat", "chaos", None])
    ),
    min_size=1,
    max_size=7,
)


@given(payload=spec_payloads, order_seed=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_spec_digest_invariant_under_field_reordering(payload, order_seed):
    items = list(payload.items())
    order_seed.shuffle(items)
    assert spec_digest_of(dict(items)) == spec_digest_of(payload)


@given(payload=spec_payloads)
@settings(max_examples=100, deadline=None)
def test_spec_digest_survives_json_round_trip(payload):
    reloaded = json.loads(json.dumps(payload))
    assert spec_digest_of(reloaded) == spec_digest_of(payload)


@given(payload=spec_payloads, extra=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_spec_digest_sees_any_field_change(payload, extra):
    changed = dict(payload)
    changed["seed"] = extra
    if changed == payload:
        changed["seed"] = extra + 1
    assert spec_digest_of(changed) != spec_digest_of(payload)


# ----------------------------------------------------------------------
# Metric-name classification sanity
# ----------------------------------------------------------------------
@given(
    stem=st.sampled_from(["module0.ppe.nat", "module1.ppe.firewall"]),
    leaf=st.sampled_from(["drops", "processed.packets", "delivered.bytes"]),
)
def test_ordinary_dotted_names_are_semantic(stem, leaf):
    assert is_semantic_metric(f"{stem}.{leaf}")


@given(stem=st.sampled_from(["module0.ppe.nat", "module1.ppe.firewall"]))
def test_strategy_counters_never_semantic(stem):
    assert not is_semantic_metric(f"{stem}.flow_cache.hits")
    assert not is_semantic_metric(f"{stem}.fastpath_hits.packets")
    assert not is_semantic_metric(f"{stem}.compiled.recipe_frames")
