"""The shard checkpoint journal: append-only, fsynced, kill-tolerant."""

import json

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
