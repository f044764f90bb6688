"""Unit tests for the ``flexsfp.run/1`` artifact model and builders."""

from __future__ import annotations

import json

import pytest

from repro.artifact import (
    RunArtifact,
    artifact_from_bench,
    artifact_from_scenario_run,
    diff_artifacts,
    environment_fingerprint,
    load_artifact,
    spec_digest_of,
)
from repro.engine import validate_engine
from repro.errors import ConfigError
from repro.obs.export import json_document
from repro.obs.scenario import ScenarioSpec
from repro.parallel import run_sharded


@pytest.fixture(scope="module")
def fleet_artifact() -> RunArtifact:
    spec = ScenarioSpec(kind="nat-linerate", seed=5, shards=2, engine="reference")
    return run_sharded(spec, workers=1).to_artifact()


class TestEngineNames:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            validate_engine("turbo")


class TestSpecDigest:
    def test_digest_ignores_key_order(self):
        payload = {"kind": "nat-linerate", "seed": 3, "shards": 2}
        reordered = {"shards": 2, "kind": "nat-linerate", "seed": 3}
        assert spec_digest_of(payload) == spec_digest_of(reordered)

    def test_digest_sees_value_changes(self):
        payload = {"kind": "nat-linerate", "seed": 3}
        assert spec_digest_of(payload) != spec_digest_of({**payload, "seed": 4})


class TestRunArtifact:
    def test_document_is_schema_tagged_single_line(self, fleet_artifact):
        document = fleet_artifact.document()
        assert "\n" not in document
        payload = json.loads(document)
        assert payload["schema"] == "flexsfp.run/1"
        assert payload["spec_digest"] == fleet_artifact.spec_digest

    def test_round_trip_through_dict(self, fleet_artifact):
        clone = RunArtifact.from_dict(fleet_artifact.to_dict())
        assert clone.to_dict() == fleet_artifact.to_dict()
        assert diff_artifacts(clone, fleet_artifact).identical

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ConfigError, match="expected"):
            RunArtifact.from_dict({"schema": "flexsfp.table/1"})

    def test_knobs_reflect_spec(self, fleet_artifact):
        knobs = fleet_artifact.knobs
        assert knobs["engine"] == "reference"
        assert knobs["shards"] == 2
        assert knobs["device"] == "MPF200T"
        assert not {"engine_config", "fastpath", "batch_size"} & set(knobs)

    def test_normalized_blanks_only_volatile_sections(self, fleet_artifact):
        normalized = fleet_artifact.normalized()
        assert normalized.timings == {}
        assert normalized.environment == {}
        assert normalized.supervisor == {}
        assert normalized.metrics == fleet_artifact.metrics
        assert normalized.shards == fleet_artifact.shards

    def test_artifact_digest_excludes_volatile_sections(self, fleet_artifact):
        from dataclasses import replace

        retimed = replace(fleet_artifact, timings={"wall_s": 1e9})
        assert retimed.artifact_digest() == fleet_artifact.artifact_digest()

    def test_artifact_digest_sees_metric_changes(self, fleet_artifact):
        from dataclasses import replace

        tampered = replace(
            fleet_artifact,
            metrics={**fleet_artifact.metrics, "fiber.rx.packets": -1},
        )
        assert tampered.artifact_digest() != fleet_artifact.artifact_digest()

    def test_golden_bytes_end_with_newline_and_parse(self, fleet_artifact):
        produced = fleet_artifact.golden_bytes()
        assert produced.endswith(b"\n")
        payload = json.loads(produced)
        assert payload["schema"] == "flexsfp.run/1"
        assert payload["timings"] == {}

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        assert set(env) == {
            "python", "implementation", "platform", "machine", "cpus", "repro",
        }
        assert env["cpus"] >= 1


class TestScenarioRunBuilder:
    def test_chaos_scenario_artifact(self):
        run = ScenarioSpec(
            kind="chaos", fault_plan="smoke", seed=7, engine="reference"
        ).resolved().run()
        artifact = artifact_from_scenario_run(
            run, source="chaos-gauntlet", findings=[{"kind": "optical_cut"}]
        )
        assert artifact.source == "chaos-gauntlet"
        assert artifact.seed == 7
        assert artifact.completeness["ok"] is True
        assert artifact.completeness["shards"] == 1
        assert len(artifact.shards) == 1
        assert artifact.shards[0]["digest"] == run.digest()
        assert artifact.summary["packets_sent"] > 0
        assert artifact.findings == ({"kind": "optical_cut"},)

    def test_scenario_artifact_spec_digest_is_stable(self):
        spec = ScenarioSpec(
            kind="chaos", fault_plan="smoke", seed=7, engine="reference"
        )
        first = artifact_from_scenario_run(spec.resolved().run(), source="x")
        second = artifact_from_scenario_run(spec.resolved().run(), source="x")
        assert first.spec_digest == second.spec_digest
        assert first.artifact_digest() == second.artifact_digest()


class TestBenchBuilder:
    def test_bench_artifact_shape(self):
        artifact = artifact_from_bench(
            "e2e_nat_linerate",
            metrics={"sim_pps": 123456.0, "delivered.packets": 99},
            seed=1,
            knobs={"engine": "compiled"},
            summary={"speedup": 3.4},
            wall_s=1.25,
        )
        assert artifact.source == "bench:e2e_nat_linerate"
        assert artifact.spec["kind"] == "bench:e2e_nat_linerate"
        assert artifact.knobs["engine"] == "compiled"
        assert artifact.timings == {"wall_s": 1.25}
        assert artifact.completeness["ok"] is True

    def test_bench_spec_digest_keys_on_knobs(self):
        base = artifact_from_bench("b", metrics={}, seed=1, knobs={"x": 1})
        same = artifact_from_bench("b", metrics={"y": 9}, seed=1, knobs={"x": 1})
        other = artifact_from_bench("b", metrics={}, seed=1, knobs={"x": 2})
        assert base.spec_digest == same.spec_digest
        assert base.spec_digest != other.spec_digest


class TestLoadArtifact:
    def test_load_run_document(self, fleet_artifact, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(fleet_artifact.document() + "\n")
        loaded = load_artifact(path)
        assert diff_artifacts(loaded, fleet_artifact).identical

    def test_load_rejects_fleet_document(self, fleet_artifact, tmp_path):
        # The pre-2.0 flexsfp.fleet/1 shape is no longer upgraded in place.
        legacy = tmp_path / "fleet.json"
        legacy.write_text(
            json_document("flexsfp.fleet/1", spec=fleet_artifact.spec, shards=[])
            + "\n"
        )
        with pytest.raises(ConfigError, match="flexsfp.fleet/1"):
            load_artifact(legacy)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_artifact(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_artifact(bad)


# One field at a time: gone, or replaced by each of these.  1e400 is what
# ``json.loads`` makes of an out-of-range literal: infinity.
_DELETE = object()
MUTATIONS = (_DELETE, None, "x", -1, [], {}, float("inf"))


def _paths(node, prefix=()):
    """Every dict key and list index of a document, outermost first."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )  # fmt: skip
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutant(document, path, value):
    clone = json.loads(json.dumps(document))
    node = clone
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return clone


class TestArtifactBoundaryFailsClosed:
    """A ``flexsfp.run/1`` document comes from outside the program: whatever
    one wrong field does, it does as a ``ConfigError`` naming the field."""

    @pytest.mark.parametrize("kind", ["nat-linerate", "nfv-chain"])
    def test_no_single_field_mutant_escapes_as_anything_but_config_error(self, kind):
        from repro.obs.scenario import TrafficProfile

        spec = ScenarioSpec(
            kind=kind, seed=5, shards=2, engine="compiled",
            traffic=TrafficProfile(duration_s=0.05e-3),
        )  # fmt: skip
        good = run_sharded(spec, workers=1).to_artifact()
        document = json.loads(good.document())
        mutants = refused = 0
        for path in _paths(document):
            for value in MUTATIONS:
                mutants += 1
                try:
                    loaded = RunArtifact.from_dict(_mutant(document, path, value))
                except ConfigError as exc:
                    refused += 1
                    assert str(path[0]) in str(exc), (path, value, exc)
                    continue
                # What the loader lets through, every consumer can take.
                diff_artifacts(good, loaded).to_dict()
                loaded.artifact_digest()
                assert all(loaded.digests)
        assert mutants > 1000 and refused > 100, (mutants, refused)

    def test_no_schema_or_an_unknown_field_is_refused(self, fleet_artifact, tmp_path, capsys):
        from repro.cli import main

        document = json.loads(fleet_artifact.document())
        with pytest.raises(ConfigError, match="schema"):
            RunArtifact.from_dict(_mutant(document, ("schema",), _DELETE))
        with pytest.raises(ConfigError, match="bogus"):
            RunArtifact.from_dict({**document, "bogus": 3})
        # Two digest records are not run artifacts: diff refuses them
        # instead of calling them identical.
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"chaos/reference/1": "a" * 64}))
        b.write_text(json.dumps({"chaos/reference/1": "b" * 64}))
        assert main(["diff", str(a), str(b)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_diff_cli_names_the_field_and_exits_2(self, fleet_artifact, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.json"
        good.write_text(fleet_artifact.document() + "\n")
        document = json.loads(fleet_artifact.document())
        for path, value, named in (
            (("seed",), float("inf"), "'seed'"),
            (("metrics",), None, "'metrics'"),
            (("shards", 1, "summary"), "x", "'shards[1].summary'"),
            (("completeness", "failed_indices"), -1, "'completeness.failed_indices'"),
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(_mutant(document, path, value)))
            assert main(["diff", str(good), str(bad)]) == 2
            captured = capsys.readouterr()
            assert named in captured.err and "Traceback" not in captured.err
