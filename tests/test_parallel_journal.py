"""The shard checkpoint journal: append-only, fsynced, kill-tolerant."""

import hashlib
import json
import re

import pytest

from repro.errors import ConfigError
from repro.obs import SCHEMA_JOURNAL, ScenarioSpec, TrafficProfile
from repro.parallel import (
    ShardJournal,
    load_journal,
    run_shard,
    shard_spec,
    spec_digest,
)

SPEC = ScenarioSpec(
    kind="nat-linerate", seed=9, shards=3,
    traffic=TrafficProfile(duration_s=0.1e-3),
).resolved()


@pytest.fixture(scope="module")
def results():
    return [run_shard((SPEC, index)) for index in range(SPEC.shards)]


class TestRoundTrip:
    def test_write_and_load(self, tmp_path, results):
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            for index, result in enumerate(results):
                journal.append_shard(result, attempts=index + 1)
        spec, completed = load_journal(path)
        assert spec == SPEC
        assert sorted(completed) == [0, 1, 2]
        for index, result in enumerate(results):
            assert completed[index] == result

    def test_header_binds_spec_digest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ShardJournal.open_new(path, SPEC).close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == SCHEMA_JOURNAL
        assert header["spec_digest"] == spec_digest(SPEC)
        assert header["shards"] == SPEC.shards

    def test_duplicate_index_keeps_last(self, tmp_path, results):
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            journal.append_shard(results[0])
            journal.append_shard(results[0], attempts=2)
        _, completed = load_journal(path)
        assert list(completed) == [0]

    def test_append_continues_existing_journal(self, tmp_path, results):
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            journal.append_shard(results[0])
        with ShardJournal.open_append(path, SPEC) as journal:
            journal.append_shard(results[1])
        _, completed = load_journal(path)
        assert sorted(completed) == [0, 1]


class TestCrashTolerance:
    def test_truncated_trailing_line_is_dropped(self, tmp_path, results):
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            journal.append_shard(results[0])
        # The write a SIGKILL interrupted: half a JSON record, no newline.
        with path.open("a") as handle:
            handle.write('{"kind": "shard", "index": 1, "seed": 12')
        _, completed = load_journal(path)
        assert sorted(completed) == [0]

    def test_resumed_torn_journal_reloads_and_resumes_again(self, tmp_path, results):
        """A resume must not append onto the torn line: the journal it leaves
        is one any later reader, and a second resume, can load."""
        from repro.parallel import run_sharded

        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            for result in results:
                journal.append_shard(result)
        whole = path.read_bytes()
        lines = whole.splitlines(keepends=True)
        # Header + shard 0 + half of shard 1; then, after the first resume
        # has completed the file, everything but half of its last record.
        for keep in (2, len(lines) - 1):
            torn = b"".join(lines[:keep]) + lines[keep][: len(lines[keep]) // 2]
            path.write_bytes(torn)
            assert len(load_journal(path)[1]) == keep - 1
            resumed = run_sharded(SPEC, workers=1, resume=path)
            assert resumed.ok
            _, completed = load_journal(path)
            assert [completed[index] for index in range(SPEC.shards)] == results
            assert all(json.loads(line) for line in path.read_text().splitlines())

    def test_terminated_garbage_tail_is_corruption_not_a_torn_write(
        self, tmp_path, results
    ):
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            journal.append_shard(results[0])
        with path.open("a") as handle:
            handle.write('{"kind": "shard", "index": 1, "seed": 12\n')
        with pytest.raises(ConfigError, match="corrupt"):
            load_journal(path)

    def test_corrupt_middle_line_raises(self, tmp_path, results):
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            journal.append_shard(results[0])
        lines = path.read_text().splitlines()
        lines.insert(1, "garbage not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="corrupt"):
            load_journal(path)


class TestValidation:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_journal(tmp_path / "absent.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_journal(path)

    def test_blank_lines_only_raise(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n  \n")
        with pytest.raises(ConfigError, match="no readable header"):
            load_journal(path)

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"schema": "flexsfp.metrics/1"}) + "\n")
        with pytest.raises(ConfigError, match="schema"):
            load_journal(path)

    def test_tampered_header_digest_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ShardJournal.open_new(path, SPEC).close()
        header = json.loads(path.read_text().splitlines()[0])
        header["spec"]["seed"] = header["spec"]["seed"] + 1
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ConfigError, match="digest mismatch"):
            load_journal(path)

    def test_unknown_record_kind_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ShardJournal.open_new(path, SPEC).close()
        with path.open("a") as handle:
            handle.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ConfigError, match="unknown record kind"):
            load_journal(path)

    def test_out_of_range_shard_raises(self, tmp_path, results):
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            record = results[0].to_dict()
        record.update({"kind": "shard", "attempts": 1, "index": 99})
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match="out of range"):
            load_journal(path)

    def test_append_to_foreign_spec_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ShardJournal.open_new(path, SPEC).close()
        other = ScenarioSpec(
            kind="nat-linerate", seed=10, shards=3,
            traffic=TrafficProfile(duration_s=0.1e-3),
        ).resolved()
        with pytest.raises(ConfigError, match="different spec"):
            ShardJournal.open_append(path, other)

    def test_spec_digest_is_stable_across_round_trip(self):
        rebuilt = ScenarioSpec.from_dict(SPEC.to_dict())
        assert spec_digest(rebuilt) == spec_digest(SPEC)

    def test_journalled_seed_matches_derivation(self, tmp_path, results):
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            journal.append_shard(results[2])
        _, completed = load_journal(path)
        assert completed[2].seed == shard_spec(SPEC, 2).seed


def _set(path: tuple, value):
    """A mutation that stores ``value`` at ``path`` inside one record."""

    def mutate(record):
        target = record
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return record

    return mutate


def _drop(key: str):
    def mutate(record):
        del record[key]
        return record

    return mutate


def _histogram_counts(record):
    state = next(iter(record["histograms"].values()))
    state["counts"] = state["counts"][:-1]
    return record


#: id -> (record to mutate: 0 the header, 1 the first shard, mutation,
#: what the error must name).  Each case crashed ``--resume`` with a
#: traceback, or loaded a journal the merge would silently mis-read.
JOURNAL_MUTANTS = {
    "header-without-spec": (0, _drop("spec"), "header field 'spec'"),
    "header-is-array": (0, lambda record: [record], "header must be dict"),
    "traffic-unknown-key": (
        0, _set(("spec", "traffic", "burst"), 4), r"traffic field\(s\): \['burst'\]"
    ),
    "tenants-is-string": (0, _set(("spec", "tenants"), "ab"), "'tenants' must be list"),
    "seed-is-string": (0, _set(("spec", "seed"), "x"), "'seed' must be int"),
    "shards-is-float": (0, _set(("spec", "shards"), 2.5), "'shards' must be int"),
    "profile-is-string": (0, _set(("spec", "profile"), "yes"), "'profile' must be bool"),
    "device-is-int": (
        0, _set(("spec", "device"), 5), r"unknown scenario spec field\(s\): \['device'\]"
    ),
    "app-is-retired": (
        0, _set(("spec", "app"), "nat"), r"unknown scenario spec field\(s\): \['app'\]"
    ),
    "shard-is-array": (1, lambda record: [record], "shard record must be dict"),
    "shard-without-seed": (1, _drop("seed"), "shard record field 'seed'"),
    "metrics-is-array": (1, _set(("metrics",), [1]), "'metrics' must be dict"),
    "histogram-not-object": (
        1, _set(("histograms", "h"), [1, 2]), "histogram 'h' must be dict"
    ),
    "histogram-short-counts": (1, _histogram_counts, "16 counts for 16 bounds"),
}  # fmt: skip


class TestMutantsFailClosed:
    """A malformed journal is a ``ConfigError`` naming its field, exit 2."""

    @pytest.fixture(params=sorted(JOURNAL_MUTANTS))
    def mutant(self, request, tmp_path, results):
        line, mutate, needle = JOURNAL_MUTANTS[request.param]
        path = tmp_path / "run.jsonl"
        with ShardJournal.open_new(path, SPEC) as journal:
            journal.append_shard(results[0])
        records = [json.loads(text) for text in path.read_text().splitlines()]
        records[line] = mutate(records[line])
        if line == 0 and isinstance(records[0], dict) and "spec" in records[0]:
            # Re-bind the digest so the field itself, not the digest, is judged.
            canonical = json.dumps(records[0]["spec"], sort_keys=True, default=str)
            records[0]["spec_digest"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        return path, needle

    def test_load_journal_names_the_field(self, mutant):
        path, needle = mutant
        with pytest.raises(ConfigError, match=needle):
            load_journal(path)

    def test_cli_resume_exits_2(self, mutant, capsys):
        from repro.cli import main

        path, needle = mutant
        assert main(["run", "--resume", str(path), "--workers", "1"]) == 2
        assert re.search(needle, capsys.readouterr().err)
