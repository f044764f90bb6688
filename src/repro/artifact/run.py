"""The unified run artifact: one ``flexsfp.run/1`` document per run.

Every entry point — ``flexsfp run``, the chaos gauntlet, ``flexsfp
matrix`` cells, and the benchmark harness — reduces its result to one
:class:`RunArtifact`: the resolved spec and its digest, the root seed,
the engine/shard/device/fault-plan knobs, the merged metrics
registry snapshot, per-shard digests (raw and semantic), the
completeness block, findings, timings, and an environment fingerprint.
The artifact is the ingestion format for artifact stores and the operand
of :func:`~repro.artifact.diff.diff_artifacts` — "is configuration A
bit-identical to configuration B" is a diff of two of these documents.

The document splits into a *semantic* body and *volatile* trailers
(``timings``, ``environment``, ``supervisor``): the volatile sections
change between reruns and machines by design and are excluded from the
artifact digest, from semantic diffs, and — zeroed by
:meth:`RunArtifact.normalized` — from the golden corpus bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping

from .._util import typed
from ..engine import resolve_engine
from ..errors import ConfigError
from ..obs.export import SCHEMA_RUN
from .diff import semantic_shard_digest

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..obs.scenario import ScenarioRun
    from ..parallel.runner import FleetRunResult


def environment_fingerprint() -> dict:
    """Where this artifact was produced (volatile: never diffed as semantic)."""
    from .. import __version__

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "repro": __version__,
    }


def spec_digest_of(spec_payload: Mapping[str, object]) -> str:
    """SHA-256 over the canonical JSON of a spec payload.

    Field order never matters: the canonical encoding sorts keys, so a
    spec dict that round-tripped through JSON, a hand-reordered copy,
    and the original dataclass all digest identically.
    """
    canonical = json.dumps(dict(spec_payload), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


#: Every section of the document and its type; a missing section is empty.
_SECTIONS = {
    "source": str, "spec": dict, "spec_digest": str, "seed": int, "knobs": dict,
    "metrics": dict, "histograms": dict, "shards": list, "completeness": dict,
    "summary": dict, "findings": list, "timings": dict, "environment": dict,
    "supervisor": dict,
}  # fmt: skip
#: What every entry of ``shards`` carries, and as what.
_SHARD_FIELDS = {
    "index": int, "seed": int, "digest": str, "semantic_digest": str, "summary": dict,
}  # fmt: skip


def _typed(value: object, kind: type, where: str):
    return typed(value, kind, f"artifact field {where!r}")


@dataclass(frozen=True)
class RunArtifact:
    """One run, reduced to the ``flexsfp.run/1`` document fields."""

    source: str
    spec: dict
    spec_digest: str
    seed: int
    knobs: dict
    metrics: dict
    histograms: dict
    shards: tuple[dict, ...]
    completeness: dict
    summary: dict = field(default_factory=dict)
    findings: tuple[dict, ...] = ()
    timings: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    supervisor: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return bool(self.completeness.get("ok", True))

    @property
    def digests(self) -> tuple[str, ...]:
        return tuple(str(shard["digest"]) for shard in self.shards)

    def artifact_digest(self) -> str:
        """SHA-256 over the semantic body (volatile trailers excluded).

        Stable across reruns with the same seed, across machines, and
        across worker counts — the fingerprint an artifact store keys on.
        """
        body = self.to_dict()
        for volatile in ("timings", "environment", "supervisor"):
            body.pop(volatile, None)
        canonical = json.dumps(body, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_RUN,
            "source": self.source,
            "spec": dict(self.spec),
            "spec_digest": self.spec_digest,
            "seed": self.seed,
            "knobs": dict(self.knobs),
            "metrics": dict(self.metrics),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "shards": [dict(shard) for shard in self.shards],
            "completeness": dict(self.completeness),
            "summary": dict(self.summary),
            "findings": [dict(finding) for finding in self.findings],
            "timings": dict(self.timings),
            "environment": dict(self.environment),
            "supervisor": dict(self.supervisor),
        }

    def document(self) -> str:
        """The canonical one-line ``flexsfp.run/1`` JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunArtifact":
        """Rebuild an artifact from its document; a missing section is empty.

        The document comes from outside the program: a missing ``schema``,
        an unknown top-level field or a field of the wrong type is a
        :class:`ConfigError` naming it, never a ``TypeError`` from deep
        inside a later diff.
        """
        data = dict(payload)
        schema = data.pop("schema", None)
        if schema != SCHEMA_RUN:
            raise ConfigError(
                f"expected a {SCHEMA_RUN!r} document, got schema {schema!r}"
            )
        unknown = sorted(map(str, data.keys() - _SECTIONS.keys()))
        if unknown:
            raise ConfigError(f"unknown artifact field(s) {unknown}")
        doc = {
            name: _typed(data.get(name, kind()), kind, name)
            for name, kind in _SECTIONS.items()
        }
        for index, shard in enumerate(doc["shards"]):
            where = f"shards[{index}]"
            _typed(shard, dict, where)
            for key, kind in _SHARD_FIELDS.items():
                _typed(shard.get(key), kind, f"{where}.{key}")
        for name, state in doc["histograms"].items():
            _typed(state, dict, f"histograms[{name!r}]")
        for index, finding in enumerate(doc["findings"]):
            _typed(finding, dict, f"findings[{index}]")
        failed = doc["completeness"].get("failed_indices", [])
        _typed(failed, list, "completeness.failed_indices")
        deployment = _typed(doc["knobs"].get("deployment", {}), dict, "knobs.deployment")
        tenants = _typed(deployment.get("tenants", []), list, "knobs.deployment.tenants")
        for index, tenant in enumerate(tenants):
            _typed(tenant, dict, f"knobs.deployment.tenants[{index}]")
        return cls(
            **{**doc, "shards": tuple(doc["shards"]), "findings": tuple(doc["findings"])}
        )

    # ------------------------------------------------------------------
    def normalized(self) -> "RunArtifact":
        """A copy with the volatile trailers zeroed.

        This is the golden-corpus form: byte-identical across machines,
        Python builds, and reruns, while remaining a valid
        ``flexsfp.run/1`` document.
        """
        return replace(self, timings={}, environment={}, supervisor={})

    def golden_bytes(self) -> bytes:
        """Canonical pretty-printed bytes of the normalized artifact."""
        return (
            json.dumps(
                self.normalized().to_dict(), sort_keys=True, indent=2, default=str
            )
            + "\n"
        ).encode()


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _all_completed(shards: int) -> dict:
    """The completeness block of a run whose every shard finished first try."""
    return {
        "ok": True,
        "shards": shards,
        "completed": shards,
        "failed": [],
        "failed_indices": [],
        "resumed": [],
        "retries": 0,
    }


def _knobs_from_spec(spec_payload: Mapping, workers: int | None) -> dict:
    knobs = {
        "engine": resolve_engine(spec_payload.get("engine")),
        "shards": int(spec_payload.get("shards", 1)),
        "workers": workers,
        "device": spec_payload.get("device"),
        "fault_plan": spec_payload.get("fault_plan"),
    }
    tenants = spec_payload.get("tenants")
    if tenants:
        # The resolved deployment: tenant identity and workload fields
        # are semantic (diffed as ``tenant-set``).
        knobs["deployment"] = {
            "tenants": [
                {
                    "name": tenant.get("name"),
                    "app": tenant.get("app"),
                    "match": dict(tenant.get("match") or {}),
                    "share": tenant.get("share", 1.0),
                }
                for tenant in tenants
            ],
        }
    return knobs


def _build(
    source: str,
    spec_payload: dict,
    workers: int | None,
    shards: Iterable[tuple],
    completeness: dict | None = None,
    findings: Iterable[Mapping] = (),
    wall_s: float | None = None,
    **sections: dict,
) -> RunArtifact:
    """The one artifact builder; each entry point only gathers its inputs.

    ``shards`` holds one ``(index, seed, digest, metrics, summary,
    histograms)`` per shard; ``sections`` are the remaining document
    sections (``metrics``, ``histograms``, ``summary``, ``supervisor``).
    """
    entries = tuple(
        {
            "index": index,
            "seed": seed,
            "digest": digest,
            "semantic_digest": semantic_shard_digest(metrics, summary, histograms),
            "summary": dict(summary),
        }
        for index, seed, digest, metrics, summary, histograms in shards
    )
    return RunArtifact(
        source=source,
        spec=spec_payload,
        spec_digest=spec_digest_of(spec_payload),
        seed=int(spec_payload.get("seed", 0)),
        knobs=_knobs_from_spec(spec_payload, workers),
        shards=entries,
        completeness=completeness or _all_completed(len(entries)),
        findings=tuple(dict(finding) for finding in findings),
        timings={} if wall_s is None else {"wall_s": wall_s},
        environment=environment_fingerprint(),
        **sections,
    )


def artifact_from_fleet_result(
    result: "FleetRunResult",
    source: str = "flexsfp-run",
    findings: Iterable[Mapping] = (),
) -> RunArtifact:
    """Reduce a (supervised) fleet run to its ``flexsfp.run/1`` artifact."""
    completeness = result.completeness
    return _build(
        source,
        result.spec.to_dict(),
        result.workers,
        [
            (s.index, s.seed, s.digest, s.metrics, s.summary, s.histograms)
            for s in result.shards
        ],
        completeness=None if completeness is None else completeness.to_dict(),
        findings=findings,
        wall_s=result.wall_s,
        metrics=dict(result.merged_metrics),
        histograms={k: dict(v) for k, v in result.merged_histograms.items()},
        supervisor=dict(result.supervisor),
    )


def artifact_from_scenario_run(
    run: "ScenarioRun",
    source: str,
    findings: Iterable[Mapping] = (),
    wall_s: float | None = None,
) -> RunArtifact:
    """Wrap one in-process :class:`ScenarioRun` as a 1-shard artifact.

    The chaos-gauntlet CLI and any direct ``spec.run()`` caller emit
    through here: same document, same digests, same diffability as a
    sharded campaign of size one.
    """
    if run.spec is None:
        raise ConfigError("scenario run carries no spec; cannot build artifact")
    spec_payload = run.spec.resolved().to_dict()
    metrics, histograms = run.metrics(), run.histograms()
    summary = dict(run.summary or {})
    shard = (0, spec_payload["seed"], run.digest(), metrics, summary, histograms)
    return _build(
        source,
        spec_payload,
        None,
        [shard],
        findings=findings,
        wall_s=wall_s,
        metrics=metrics,
        histograms=histograms,
        summary=summary,
    )


def artifact_from_bench(
    bench: str,
    metrics: Mapping[str, object],
    seed: int = 0,
    knobs: Mapping[str, object] | None = None,
    summary: Mapping[str, object] | None = None,
    wall_s: float | None = None,
) -> RunArtifact:
    """A benchmark result as a ``flexsfp.run/1`` artifact.

    Benches have no :class:`~repro.obs.scenario.ScenarioSpec`; the spec
    payload is the bench's own identity (name + seed + knobs), which is
    exactly what must be stable for two runs of one bench to be
    comparable across commits.
    """
    knobs = dict(knobs or {})
    spec_payload = {"kind": f"bench:{bench}", "seed": seed, **knobs}
    metrics, summary = dict(metrics), dict(summary or {})
    digest = semantic_shard_digest(metrics, summary, {})
    return _build(
        f"bench:{bench}",
        spec_payload,
        knobs.get("workers"),
        [(0, seed, digest, metrics, summary, {})],
        wall_s=wall_s,
        metrics=metrics,
        histograms={},
        summary=summary,
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_artifact(path) -> RunArtifact:
    """Load a ``flexsfp.run/1`` document from disk.

    Anything else — a missing file, malformed JSON, another schema such as
    the pre-2.0 ``flexsfp.fleet/1`` — raises :class:`ConfigError`.
    """
    from pathlib import Path

    target = Path(path)
    if not target.is_file():
        raise ConfigError(f"artifact {target} does not exist")
    try:
        payload = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"artifact {target} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"artifact {target} is not a JSON document")
    return RunArtifact.from_dict(payload)
