"""Append-only shard checkpoint journal: kill -9 survivable progress.

A supervised fleet run journals every completed
:class:`~repro.parallel.runner.ShardResult` to a JSON Lines file as soon
as it merges: one header line binding the journal to its resolved
:class:`~repro.obs.scenario.ScenarioSpec` (by canonical digest), then
one ``shard`` record per completion.  ``flexsfp run --resume <journal>``
reloads the file, verifies the spec digest, and re-executes only the
shards that are missing — because shard seeds are a pure function of
(root seed, index), the resumed shards reproduce the exact digests the
uninterrupted run would have.

Crash-safety contract: every append is flushed and fsynced, and a record
is complete once its newline is down.  Whatever follows the last newline
is the record a SIGKILL interrupted mid-write: the loader discards it, and
a resumed writer truncates it before appending, so the next record never
lands on the torn line.  Any other malformed line is corruption and raises.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .._util import typed
from ..errors import ConfigError
from ..obs.export import SCHEMA_JOURNAL
from ..obs.scenario import ScenarioSpec
from .runner import ShardResult


def spec_digest(spec: ScenarioSpec) -> str:
    """SHA-256 over the canonical JSON of a (resolved) spec."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _complete_bytes(target: Path) -> bytes:
    """The journal up to and including its last newline."""
    data = target.read_bytes()
    return data[: data.rfind(b"\n") + 1]


def _shard_record(result: ShardResult, attempts: int) -> dict:
    record = {"kind": "shard", "attempts": attempts}
    record.update(result.to_dict())
    return record


def _histogram_state(state: object, where: str) -> dict:
    typed(state, dict, where)
    bounds = typed(state.get("bounds"), list, f"{where}.bounds")
    counts = typed(state.get("counts"), list, f"{where}.counts")
    if len(counts) != len(bounds) + 1:
        # One bucket per bound plus the overflow: anything else would merge
        # by a silently truncating zip.
        raise ConfigError(
            f"{where} has {len(counts)} counts for {len(bounds)} bounds "
            f"(needs {len(bounds) + 1})"
        )
    return {"bounds": list(bounds), "counts": list(counts)}


def _result_from_record(record: object, shards: int) -> ShardResult:
    typed(record, dict, "shard record")
    if record.get("kind") != "shard":
        raise ConfigError(f"unknown record kind {record.get('kind')!r}")

    def field(name: str, kind, default=None):
        return typed(record.get(name, default), kind, f"shard record field {name!r}")

    index = field("index", int)
    if not 0 <= index < shards:
        raise ConfigError(f"shard index {index} out of range for {shards} shards")
    return ShardResult(
        index=index,
        seed=field("seed", int),
        digest=field("digest", str),
        metrics=dict(field("metrics", dict)),
        summary=dict(field("summary", dict)),
        histograms={
            name: _histogram_state(state, f"shard record histogram {name!r}")
            for name, state in field("histograms", dict, {}).items()
        },
    )


class ShardJournal:
    """Append-only writer for one run's shard checkpoints.

    ``open_new`` truncates and writes the header; ``open_append``
    attaches to an existing journal (resume continuing into the same
    file) after verifying its header matches the spec being run.
    """

    def __init__(self, path: Path, spec: ScenarioSpec, handle) -> None:
        self.path = path
        self.spec = spec
        self._handle = handle

    # ------------------------------------------------------------------
    @classmethod
    def open_new(cls, path: str | os.PathLike, spec: ScenarioSpec) -> "ShardJournal":
        target = Path(path)
        handle = target.open("w")
        journal = cls(target, spec, handle)
        journal._append(
            {
                "schema": SCHEMA_JOURNAL,
                "spec": spec.to_dict(),
                "spec_digest": spec_digest(spec),
                "shards": spec.shards,
            }
        )
        return journal

    @classmethod
    def open_append(
        cls, path: str | os.PathLike, spec: ScenarioSpec
    ) -> "ShardJournal":
        target = Path(path)
        header_spec, _ = load_journal(target)  # validates header + records
        if spec_digest(header_spec) != spec_digest(spec):
            raise ConfigError(
                f"journal {target} was written for a different spec; "
                "resume must re-run the journalled spec"
            )
        os.truncate(target, len(_complete_bytes(target)))
        return cls(target, spec, target.open("a"))

    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_shard(self, result: ShardResult, attempts: int = 1) -> None:
        """Checkpoint one completed shard (flushed + fsynced)."""
        self._append(_shard_record(result, attempts))

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "ShardJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_journal(
    path: str | os.PathLike,
) -> tuple[ScenarioSpec, dict[int, ShardResult]]:
    """Read a journal back: its spec and the completed shards by index.

    A shard recorded more than once keeps the last record (a resumed run
    appends into the same file).  An unterminated trailing line is the
    signature of a killed writer and is dropped; a malformed line
    anywhere else raises :class:`~repro.errors.ConfigError`.
    """
    target = Path(path)
    if not target.is_file():
        raise ConfigError(f"journal {target} does not exist")
    lines = _complete_bytes(target).decode(errors="replace").splitlines()
    if not lines:
        raise ConfigError(f"journal {target} is empty")
    records: list[object] = []
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            raise ConfigError(
                f"journal {target} line {number + 1} is corrupt "
                "(newline-terminated, cannot be a truncated append)"
            ) from None
    if not records:
        raise ConfigError(f"journal {target} has no readable header")
    try:
        header = typed(records[0], dict, "header")
        if header.get("schema") != SCHEMA_JOURNAL:
            raise ConfigError(
                f"schema {header.get('schema')!r}, expected {SCHEMA_JOURNAL!r}"
            )
        spec = ScenarioSpec.from_dict(
            typed(header.get("spec"), dict, "header field 'spec'")
        )
        if spec_digest(spec) != header.get("spec_digest"):
            raise ConfigError("header digest mismatch")
        results = [_result_from_record(record, spec.shards) for record in records[1:]]
    except ConfigError as exc:
        raise ConfigError(f"journal {target}: {exc}") from None
    return spec, {result.index: result for result in results}
