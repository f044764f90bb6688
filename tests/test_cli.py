"""The flexsfp command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, PAPER, build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestListing:
    def test_apps(self, capsys):
        code, out, _ = run(capsys, "apps")
        assert code == 0
        assert "nat" in out and "firewall" in out and "linkhealth" in out

    def test_devices(self, capsys):
        code, out, _ = run(capsys, "devices")
        assert code == 0
        assert "MPF200T" in out and "192,408" in out


class TestBuild:
    def test_build_nat_default(self, capsys):
        code, out, _ = run(capsys, "build", "nat")
        assert code == 0
        assert "156.25 MHz" in out
        assert "Mi-V" in out and "fits: True" in out

    def test_build_two_way_clocks_up(self, capsys):
        code, out, _ = run(capsys, "build", "nat", "--shell", "two-way-core")
        assert code == 0
        assert "312.50 MHz" in out

    def test_build_failure_exit_code(self, capsys):
        # Underclocked two-way misses timing -> exit 1 with a note.
        code, out, _ = run(
            capsys, "build", "nat", "--shell", "two-way-core", "--clock", "156.25"
        )
        assert code == 1
        assert "timing miss" in out

    def test_build_unknown_device(self, capsys):
        code, _, err = run(capsys, "build", "nat", "--device", "XCVU9P")
        assert code == 2
        assert "unknown device" in err

    def test_build_soc_control_plane(self, capsys):
        code, out, _ = run(capsys, "build", "nat", "--soc")
        assert code == 0
        assert "SoC bridge" in out


class TestTables:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "paper", "table1")
        assert code == 0
        assert "nat app" in out and "Avail." in out

    def test_table2(self, capsys):
        code, out, _ = run(capsys, "paper", "table2")
        assert code == 0
        assert "Pigasus" in out and "exceeds" in out

    def test_table3(self, capsys):
        code, out, _ = run(capsys, "paper", "table3")
        assert code == 0
        assert "FlexSFP" in out and "DPU (BF-2)" in out

    def test_table3_volume(self, capsys):
        _, out_1k, _ = run(capsys, "paper", "table3", "--units", "1000")
        _, out_100k, _ = run(capsys, "paper", "table3", "--units", "100000")
        assert out_1k != out_100k


class TestAnalysis:
    def test_power(self, capsys):
        code, out, _ = run(capsys, "paper", "power")
        assert code == 0
        assert "3.800" in out and "NIC + FlexSFP" in out

    def test_bom(self, capsys):
        code, out, _ = run(capsys, "paper", "bom")
        assert code == 0
        assert "MPF200T FPGA" in out and "total at 1,000 units" in out

    def test_scale_10g(self, capsys):
        code, out, _ = run(capsys, "paper", "scale", "10")
        assert code == 0
        assert "64 b datapath @ 156.25 MHz" in out

    def test_scale_impossible(self, capsys):
        code, out, _ = run(capsys, "paper", "scale", "400")
        assert code == 1
        assert "no single-pipeline" in out

    def test_envelope_10g(self, capsys):
        code, out, _ = run(capsys, "paper", "envelope", "10")
        assert code == 0
        assert "SFP+" in out and "fits" in out

    def test_envelope_100g_needs_lanes(self, capsys):
        code, out, _ = run(
            capsys, "paper", "envelope", "100", "--width", "1024", "--clock", "312.5"
        )
        assert code == 0
        assert "no lanes" in out and "QSFP-DD" in out


class TestJsonOutput:
    """--json swaps the table renderer for schema-tagged documents."""

    def test_apps_json(self, capsys):
        code, doc = run_json(capsys, "apps")
        assert code == 0
        assert doc["schema"] == "flexsfp.table/1"
        assert doc["title"] == "apps"
        assert doc["columns"] == ["application", "chain", "stages", "description"]
        assert any(row[0] == "nat" for row in doc["rows"])

    def test_build_json(self, capsys):
        code, doc = run_json(capsys, "build", "nat")
        assert code == 0
        assert doc["app"] == "nat" and doc["device"] == "MPF200T"
        assert doc["clock_mhz"] == pytest.approx(156.25)
        assert doc["fits"] is True and doc["meets_timing"] is True
        assert set(doc["utilization"]) >= {"4lut"} or doc["utilization"]

    def test_build_json_failure_exit_code(self, capsys):
        code, doc = run_json(
            capsys, "build", "nat", "--shell", "two-way-core", "--clock", "156.25"
        )
        assert code == 1
        assert doc["meets_timing"] is False

    def test_bom_json_totals(self, capsys):
        code, doc = run_json(capsys, "paper", "bom")
        assert code == 0
        assert doc["units"] == 1_000
        assert 0 < doc["total_low_usd"] < doc["total_high_usd"]

    def test_scale_json(self, capsys):
        code, doc = run_json(capsys, "paper", "scale", "10")
        assert code == 0 and doc["feasible"] is True
        assert doc["rows"][0][1] == 64  # 64 b datapath

    def test_scale_json_infeasible(self, capsys):
        code, doc = run_json(capsys, "paper", "scale", "400")
        assert code == 1
        assert doc["feasible"] is False and doc["rows"] == []

    def test_chaos_json(self, capsys):
        code, doc = run_json(capsys, "chaos", "smoke", "--seed", "3")
        assert code == 0
        assert doc["schema"] == "flexsfp.run/1"
        assert doc["source"] == "chaos-gauntlet"
        assert doc["spec"]["fault_plan"] == "smoke" and doc["seed"] == 3
        assert doc["findings"], "fault plan events missing"
        assert doc["shards"][0]["summary"]["packets_sent"] > 0

    def test_chaos_is_one_shard_of_run(self, capsys, tmp_path):
        """A root seed names one run: `flexsfp chaos` and `flexsfp run`
        write the same document but for its source and findings, and the
        printed plan is the one the shard played."""
        a, b = tmp_path / "chaos.json", tmp_path / "run.json"
        code, out, _ = run(capsys, "chaos", "smoke", "--seed", "3", "--out", str(a))
        assert code == 0
        code, _, _ = run(
            capsys, "run", "--scenario", "chaos", "--plan", "smoke", "--seed", "3",
            "--shards", "1", "--out", str(b),
        )
        assert code == 0
        assert main(["diff", str(a), str(b)]) == 0
        capsys.readouterr()
        summary = json.loads(a.read_text())["shards"][0]["summary"]
        assert f"sig={summary['plan_signature'][:16]}" in out

    def test_chaos_json_legacy_table(self, capsys):
        # 2.0: the flexsfp.table/1 shape of a chaos run is gone with its flag.
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "smoke", "--seed", "3", "--json", "--legacy-table"])
        assert exit_info.value.code == 2
        assert "--legacy-table" in capsys.readouterr().err

    def test_metrics_json(self, capsys):
        code, doc = run_json(capsys, "metrics")
        assert code == 0
        assert doc["schema"] == "flexsfp.metrics/1"
        assert "module0.ppe.nat.processed.packets" in doc["metrics"]

    def test_metrics_prometheus_default(self, capsys):
        code, out, _ = run(capsys, "metrics")
        assert code == 0
        assert "# TYPE flexsfp_" in out
        assert "flexsfp_module0_ppe_nat_processed_packets" in out

    def test_metrics_profiles_the_chaos_kind(self, capsys):
        code, doc = run_json(capsys, "metrics", "--scenario", "chaos", "--profile")
        assert code == 0
        metrics = doc["metrics"]
        assert metrics["agg.sfp1.ppe.nat.processed.packets"] > 0
        assert metrics["faults.applied"] > 0
        assert metrics["sim.profile.FaultInjector.calls"] == metrics["faults.applied"]

    def test_metrics_of_chaos_are_shard_zero_of_run(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        code, _, _ = run(
            capsys, "run", "--scenario", "chaos", "--shards", "1",
            "--checkpoint", str(journal),
        )  # fmt: skip
        assert code == 0
        shard = json.loads(journal.read_text().splitlines()[1])
        assert shard["index"] == 0
        code, out, _ = run(capsys, "metrics", "--scenario", "chaos", "--format", "json")
        assert code == 0
        assert json.loads(out)["metrics"] == shard["metrics"]

    def test_trace_jsonl_default(self, capsys):
        code, out, _ = run(capsys, "trace", "--packets", "1")
        assert code == 0
        spans = [json.loads(line) for line in out.strip().splitlines()]
        # nat-chain: one packet crosses the 5-stage pipeline twice.
        assert len(spans) == 10
        assert spans[0]["stage"] == "mac.rx"

    def test_trace_json_document(self, capsys):
        code, doc = run_json(
            capsys, "trace", "--scenario", "nat-linerate", "--packets", "2"
        )
        assert code == 0
        assert doc["schema"] == "flexsfp.trace/1"
        assert len(doc["spans"]) == 10

    def test_trace_a_retrofitted_switch(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--scenario", "fleet-upgrade", "--packets", "2"
        )
        assert code == 0
        spans = [json.loads(line) for line in out.strip().splitlines()]
        # Both sampled frames enter a module seated in the legacy switch.
        entries = [span for span in spans if span["stage"] == "mac.rx"]
        assert [span["trace"] for span in entries] == [0, 1]
        assert all(span["component"].startswith("agg.sfp") for span in entries)


class TestRunSubcommand:
    def test_run_json_document(self, capsys, monkeypatch):
        # Pin the engine selection: the assertion below expects the
        # reference tier, so a forced-fastpath environment (the CI job
        # that reruns the suite under FLEXSFP_FASTPATH=1) must not leak in.
        for var in ("FLEXSFP_FASTPATH", "FLEXSFP_BATCH", "FLEXSFP_ENGINE"):
            monkeypatch.delenv(var, raising=False)
        code, doc = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "2",
            "--workers", "1", "--seed", "3",
        )
        assert code == 0
        assert doc["schema"] == "flexsfp.run/1"
        assert doc["source"] == "flexsfp-run"
        assert doc["spec"]["kind"] == "nat-linerate"
        assert doc["spec"]["shards"] == 2
        assert len(doc["shards"]) == 2
        assert all(s["digest"] and s["semantic_digest"] for s in doc["shards"])
        assert doc["spec_digest"] and doc["knobs"]["engine"] == "reference"
        assert doc["metrics"]["fiber.rx.packets"] > 0
        assert "module0.ppe.nat.latency_ns" in doc["histograms"]

    def test_run_json_legacy_fleet(self, capsys):
        # 2.0: flexsfp.fleet/1 output is gone with its flag.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--scenario", "nat-linerate", "--json", "--legacy-fleet"])
        assert exit_info.value.code == 2
        assert "--legacy-fleet" in capsys.readouterr().err

    def test_run_text_table(self, capsys):
        code, out, _ = run(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "2",
            "--workers", "1",
        )
        assert code == 0
        assert "2 shard(s), 1 worker(s)" in out
        assert "merged metric" in out

    def test_run_writes_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "fleet.json"
        code, _, _ = run(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "1",
            "--workers", "1", "--out", str(artifact),
        )
        assert code == 0
        doc = json.loads(artifact.read_text())
        assert doc["schema"] == "flexsfp.run/1"
        assert len(doc["shards"]) == 1

    def test_run_bad_shards_rejected(self, capsys):
        code, _, err = run(capsys, "run", "--shards", "0", "--workers", "1")
        assert code == 2
        assert "shards" in err

    def test_run_artifact_write_is_atomic(self, capsys, tmp_path):
        artifact = tmp_path / "fleet.json"
        code, _, _ = run(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "1",
            "--workers", "1", "--out", str(artifact),
        )
        assert code == 0
        # Temp file renamed into place: only the artifact itself remains.
        assert [p.name for p in tmp_path.iterdir()] == ["fleet.json"]

    def test_run_supervision_flags(self, capsys):
        code, doc = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "1",
            "--workers", "1", "--shard-timeout", "30", "--max-retries", "1",
        )
        assert code == 0
        assert doc["completeness"]["ok"] is True
        assert doc["supervisor"]["completed"] == 1
        # 0 disables the deadline (a zero-second policy would be refused).
        code, doc = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "1",
            "--shard-timeout", "0",
        )
        assert code == 0 and doc["knobs"]["workers"] == 1


class TestSupervisedRun:
    """Partial coverage, checkpointing, and --resume through the CLI."""

    @staticmethod
    def _inject_chaos(monkeypatch, schedule, max_retries=0):
        """Make the CLI's fleet runs fail per ``schedule`` (fast policy)."""
        import repro.parallel as parallel
        from repro.faults import WorkerFaultPlan
        from repro.parallel import SupervisorPolicy

        real = parallel.run_sharded
        plan = WorkerFaultPlan.scripted(schedule)
        policy = SupervisorPolicy(
            max_retries=max_retries, backoff_s=0.01, heartbeat_s=0.05,
            heartbeat_misses=200, poll_s=0.02,
        )

        def chaotic(spec, workers=None, start_method=None, **kwargs):
            kwargs.update(chaos=plan, policy=policy)
            return real(
                spec, workers=workers, start_method=start_method, **kwargs
            )

        monkeypatch.setattr(parallel, "run_sharded", chaotic)

    def test_partial_run_exits_with_distinct_code(self, capsys, monkeypatch):
        self._inject_chaos(monkeypatch, {(1, 1): "worker_kill"})
        code, doc = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "2",
            "--workers", "2", "--seed", "3",
        )
        assert code == 4  # EXIT_PARTIAL: not 0, not a hard error
        assert doc["completeness"]["ok"] is False
        assert doc["completeness"]["failed_indices"] == [1]
        assert len(doc["shards"]) == 1

    def test_partial_run_text_report(self, capsys, monkeypatch):
        self._inject_chaos(monkeypatch, {(0, 1): "worker_kill"})
        code, out, _ = run(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "2",
            "--workers", "2", "--seed", "3",
        )
        assert code == 4
        assert "PARTIAL RESULT: 1/2 shards completed" in out
        assert "shard 0" in out and "crash" in out

    def test_an_incomplete_chaos_run_exits_4(self, capsys, monkeypatch):
        self._inject_chaos(monkeypatch, {(0, 1): "worker_kill"})
        code, out, _ = run(capsys, "chaos", "smoke", "--seed", "3")
        assert code == 4
        assert "PARTIAL RESULT: the shard gave up after 1 attempt(s)" in out
        code, doc = run_json(capsys, "chaos", "smoke", "--seed", "3")
        assert code == 4
        assert doc["completeness"]["failed_indices"] == [0] and doc["shards"] == []

    def test_resume_refuses_a_non_finite_journal_header(
        self, capsys, tmp_path, monkeypatch
    ):
        journal = tmp_path / "campaign.jsonl"
        code, _ = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "1",
            "--checkpoint", str(journal),
        )
        assert code == 0
        header, *records = journal.read_text().splitlines()
        payload = json.loads(header)
        payload["spec"]["traffic"]["duration_s"] = float("nan")
        journal.write_text("\n".join([json.dumps(payload), *records]) + "\n")
        ran = []
        monkeypatch.setattr(
            "repro.obs.scenario.ScenarioSpec.run", lambda spec: ran.append(spec)
        )
        code, out, err = run(capsys, "run", "--resume", str(journal))
        assert code == 2 and ran == []
        assert "traffic duration_s must be finite" in err

    def test_checkpoint_then_resume_reproduces_digests(self, capsys, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        code, doc = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "2",
            "--workers", "1", "--seed", "3", "--checkpoint", str(journal),
        )
        assert code == 0
        # Resume ignores today's scenario flags: the journal is the spec.
        code, resumed = run_json(
            capsys, "run", "--resume", str(journal), "--workers", "1",
            "--shards", "7", "--seed", "99",
        )
        assert code == 0
        assert resumed["spec"] == doc["spec"]
        assert [s["digest"] for s in resumed["shards"]] == [
            s["digest"] for s in doc["shards"]
        ]
        assert resumed["completeness"]["resumed"] == [0, 1]

    def test_resume_after_partial_completes_the_campaign(
        self, capsys, tmp_path, monkeypatch
    ):
        journal = tmp_path / "campaign.jsonl"
        self._inject_chaos(monkeypatch, {(1, 1): "worker_kill"})
        code, doc = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "3",
            "--workers", "2", "--seed", "3", "--checkpoint", str(journal),
        )
        assert code == 4
        assert doc["completeness"]["failed_indices"] == [1]

        monkeypatch.undo()  # chaos off: the retry landscape is clear
        code, resumed = run_json(
            capsys, "run", "--resume", str(journal), "--workers", "1",
        )
        assert code == 0
        assert resumed["completeness"]["ok"] is True
        assert sorted(resumed["completeness"]["resumed"]) == [0, 2]
        assert len(resumed["shards"]) == 3

        # The completed campaign must match a clean, undisturbed run.
        code, clean = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "3",
            "--workers", "1", "--seed", "3",
        )
        assert [s["digest"] for s in resumed["shards"]] == [
            s["digest"] for s in clean["shards"]
        ]
        assert resumed["metrics"] == clean["metrics"]

    def test_resume_rejects_pre_2_0_journal(self, capsys, tmp_path):
        # A journal bound to a spec that still carries the removed knobs
        # must not resume as if they meant nothing: typed error, exit 2.
        journal = tmp_path / "campaign.jsonl"
        code, _ = run_json(
            capsys, "run", "--scenario", "nat-linerate", "--shards", "1",
            "--workers", "1", "--checkpoint", str(journal),
        )
        assert code == 0
        header, *records = journal.read_text().splitlines()
        header = json.loads(header)
        header["spec"].update(fastpath=True, batch_size=16)
        journal.write_text("\n".join([json.dumps(header), *records]) + "\n")
        code, out, err = run(capsys, "run", "--resume", str(journal))
        assert code == 2
        assert "fastpath" in err and "Traceback" not in err

    def test_diff_rejects_fleet_document(self, capsys, tmp_path):
        legacy = tmp_path / "fleet.json"
        legacy.write_text(json.dumps({"schema": "flexsfp.fleet/1", "shards": []}))
        code, _, err = run(capsys, "diff", str(legacy), str(legacy))
        assert code == 2
        assert "flexsfp.fleet/1" in err and "Traceback" not in err


class TestTenantsFileBoundary:
    """``flexsfp check --nfv --tenants FILE`` fails closed: exit 2, no traceback."""

    GOOD = [
        {"name": "scrub", "app": "sanitizer", "match": {"udp_dport": 9099}, "share": 0.5},
        {"name": "telemetry", "app": "int", "share": 0.5},
    ]

    def check(self, capsys, tmp_path, text):
        path = tmp_path / "tenants.json"
        path.write_text(text)
        return run(capsys, "check", "--nfv", "--tenants", str(path))

    def test_well_formed_file_is_checked(self, capsys, tmp_path):
        code, out, _ = self.check(capsys, tmp_path, json.dumps(self.GOOD))
        assert code == 0
        assert "nfv:scrub+telemetry" in out or "tenant scrub" in out

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("[{", "cannot read tenants file"),
            (json.dumps({"tenants": GOOD}), "must be a list"),
            (json.dumps([{"app": "int"}]), "name"),
            (json.dumps([{"name": "solo"}]), "app"),
            (json.dumps([dict(GOOD[1], engine="compiled")]), "engine"),
            (json.dumps([dict(GOOD[1], app="telemetry", params={"collector_ip": "203.0.113"})]),
             "telemetry collector_ip: invalid IPv4 address"),
            (json.dumps([dict(GOOD[1], app="linkhealth", params={"collector_ip": "203.0.113"})]),
             "linkhealth collector_ip: invalid IPv4 address"),
        ],
        ids=["malformed-json", "not-a-list", "no-name", "no-app", "engine-key",
             "telemetry-collector", "linkhealth-collector"],
    )
    def test_bad_file_exits_2_without_traceback(self, capsys, tmp_path, text, needle):
        code, _, err = self.check(capsys, tmp_path, text)
        assert code == 2
        assert needle in err and "Traceback" not in err

    def test_unknown_app_parameter_exits_2_naming_it(self, capsys, tmp_path):
        policer = {"name": "pol", "app": "ratelimiter", "params": {"zz": 1}, "share": 0.5}
        code, _, err = self.check(capsys, tmp_path, json.dumps([policer, self.GOOD[1]]))
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: ") and "'ratelimiter'" in err and "'zz'" in err

    def test_wrongly_typed_app_parameter_exits_2_naming_it(self, capsys, tmp_path):
        policer = {"name": "pol", "app": "ratelimiter", "params": {"capacity": "x"},
                   "share": 0.5}  # fmt: skip
        code, _, err = self.check(capsys, tmp_path, json.dumps([policer, self.GOOD[1]]))
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: ") and "'capacity'" in err and "'x'" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "check", "--nfv", "--tenants", str(tmp_path / "absent.json")
        )
        assert code == 2 and "cannot read tenants file" in err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["build", "quantum-router"])


class TestSubcommandTable:
    """One table registers the 11 subcommands; ``main`` configures one.

    The lazily configured parser must be indistinguishable from the full
    one: same help, same errors, same exit codes.  ``paper`` nests the
    seven artefacts of :data:`repro.cli.PAPER` the same way.
    """

    #: Every help page: a subcommand's, or ``paper <what>``'s under its
    #: pre-``paper`` test id.
    HELP_PAGES = {name: (name,) for name, *_ in COMMANDS} | {
        what: ("paper", what) for what, *_ in PAPER
    }

    @pytest.fixture(autouse=True)
    def _eighty_columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def help_of(capsys, parse, *argv) -> str:
        with pytest.raises(SystemExit) as exit_info:
            parse([*argv, "--help"])
        assert exit_info.value.code == 0
        return capsys.readouterr().out

    def test_eleven_subcommands(self):
        names = [name for name, _help, _configure, _handler in COMMANDS]
        assert len(names) == len(set(names)) == 11
        assert [what for what, *_ in PAPER] == [
            "table1", "table2", "table3", "power", "bom", "scale", "envelope",
        ]

    @pytest.mark.parametrize("page", HELP_PAGES)
    def test_lazy_help_equals_the_full_parsers(self, capsys, page):
        argv = self.HELP_PAGES[page]
        lazy = self.help_of(capsys, main, *argv)
        full = self.help_of(capsys, build_parser().parse_args, *argv)
        assert lazy == full and f"usage: flexsfp {' '.join(argv)}" in lazy

    def test_top_level_help_equals_the_parent_commits(self, capsys):
        snapshot = json.loads(
            (ROOT / "tests" / "snapshots" / "public_surface.json").read_text()
        )["help"]
        lazy = self.help_of(capsys, main)
        assert lazy == build_parser().format_help()
        # Wrapping differs between argparse versions; the words do not.
        assert lazy.split() == snapshot.split()

    def test_unknown_subcommand_is_argparses_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["papers"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'papers'" in err and "'apps', 'devices'" in err

    def test_only_the_named_subcommand_is_configured(self):
        parser = build_parser("paper")
        assert parser.parse_args(["paper", "bom", "--units", "5"]).units == 5
        with pytest.raises(SystemExit):  # run is registered, not configured
            parser.parse_args(["run", "--shards", "2"])

    def test_json_is_accepted_on_either_side_of_the_artefact(self, capsys):
        _, before, _ = run(capsys, "paper", "--json", "scale", "10")
        _, after, _ = run(capsys, "paper", "scale", "10", "--json")
        assert before == after and json.loads(after)["title"] == "scale"


def _nat_build(**shell):
    from repro.apps import create_app
    from repro.core import ShellSpec
    from repro.hls import compile_app

    return compile_app(create_app("nat"), ShellSpec(**shell), strict=False).report


def _owner_rows() -> dict:
    """artefact -> (argv after ``paper``, the owning library function's rows)."""
    from repro.core import operating_point_report
    from repro.costmodel import FlexSfpBom, table3_report
    from repro.fpga import envelope_report, table2_report
    from repro.testbed import PowerTestbed

    nat = _nat_build()
    wide = _nat_build(line_rate_bps=100e9, datapath_bits=1024)
    return {
        "table1": (["table1"], nat.table1_rows()),
        "table2": (["table2"], table2_report().rows),
        "table3": (["table3", "--units", "5000"], table3_report(5000).rows),
        "power": (
            ["power"],
            PowerTestbed().paper_report(nat.total, nat.timing.clock_hz).rows,
        ),
        "bom": (["bom", "--units", "5000"], FlexSfpBom().report(5000).rows),
        "scale": (["scale", "40"], operating_point_report(40.0).rows),
        "envelope": (
            ["envelope", "100", "--width", "1024"],
            envelope_report(100.0, wide.total, wide.timing.clock_hz).rows,
        ),
    }


class TestPaperArtefacts:
    """One owner per artefact: the CLI prints a library function's rows."""

    @pytest.mark.parametrize("what", [what for what, *_ in PAPER])
    def test_json_rows_are_the_owning_functions(self, capsys, what):
        argv, rows = _owner_rows()[what]
        code, doc = run_json(capsys, "paper", *argv)
        assert code == 0 and doc["schema"] == "flexsfp.table/1"
        assert doc["rows"] == json.loads(json.dumps(rows)) and rows

    @pytest.mark.parametrize(
        "gbps, point", [(10, (64, 156.25)), (25, (64, 400.0)), (40, (128, 400.0)), (100, (1024, 312.5))]
    )
    def test_scale_prints_the_planners_point(self, capsys, gbps, point):
        from repro.core import plan_operating_point

        width, clock = plan_operating_point(gbps * 1e9)
        assert (width, clock / 1e6) == point
        _, out, _ = run(capsys, "paper", "scale", str(gbps))
        assert f"{width} b datapath @ {clock / 1e6:.2f} MHz" in out

    @pytest.mark.parametrize(
        "bench", ["bench_scalability.py", "bench_formfactor_scaling.py"]
    )
    def test_the_benches_import_the_planner(self, bench):
        import ast

        tree = ast.parse((ROOT / "benchmarks" / bench).read_text())
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        } | {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        assert not defined & {"plan_operating_point", "OPERATING_POINTS"}
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "repro.core"
            for alias in node.names
        }
        assert "plan_operating_point" in imported

    def test_one_planner_and_one_clock_grid_under_src(self):
        sources = {
            path: path.read_text() for path in (ROOT / "src").rglob("*.py")
        } | {path: path.read_text() for path in (ROOT / "benchmarks").glob("*.py")}
        planners = [p for p, text in sources.items() if "def plan_operating_point" in text]
        grids = [p for p, text in sources.items() if "312.5e6" in text and "156.25e6" in text]
        shells = ROOT / "src" / "repro" / "core" / "shells.py"
        assert planners == [shells] and grids == [shells]


class TestClosedPipe:
    def test_a_reader_that_closes_early_is_not_a_traceback(self):
        # ``flexsfp apps | head -1`` with the race removed: the reader is
        # gone before the first row is written.
        env = {k: v for k, v in os.environ.items() if not k.startswith("FLEXSFP_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "apps"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 0
        assert stderr == ""
