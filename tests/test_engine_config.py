"""The engine tier: one validated value, two members, one resolution path.

Pins the surface that exists — ``ENGINES``, ``validate_engine``,
``resolve_engine`` (argument > ``FLEXSFP_ENGINE`` > ``reference``), what a
tier name implies for a module, the spec/artifact plumbing that records it
— and one table asserting that every removed spelling is rejected
rather than silently reinterpreted.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import StaticNat
from repro.cli import main
from repro.config import Settings
from repro.core import FlexSFPModule, PacketProcessingEngine, ReferenceEngine
from repro.engine import ENGINES, resolve_engine, validate_engine
from repro.errors import ConfigError
from repro.faults.gauntlet import run_gauntlet
from repro.matrix import MatrixAxes
from repro.nfv import Deployment, TenantSpec
from repro.obs.scenario import ScenarioSpec
from repro.sim import Port, Simulator
from repro.switch import LegacySwitch, RetrofitPlan, apply_retrofit


def make_nat() -> StaticNat:
    nat = StaticNat(capacity=16)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    return nat


def make_module(**kwargs) -> FlexSFPModule:
    return FlexSFPModule(Simulator(), "dut", Deployment.solo(make_nat()), **kwargs)


class TestEngineConfig:
    def test_two_tiers(self):
        assert ENGINES == ("reference", "compiled")

    def test_default_is_reference(self):
        assert resolve_engine(None, Settings()) == "reference"

    @pytest.mark.parametrize("tier", ENGINES)
    def test_every_tier_constructs(self, tier):
        assert validate_engine(tier) == tier
        module = make_module(engine=tier)
        assert module.engine == tier
        expected = ReferenceEngine if tier == "reference" else PacketProcessingEngine
        assert type(module.ppe) is expected

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            resolve_engine("warp", Settings())

    def test_reference_rejects_batching(self):
        # The oracle takes its frames one deliver event at a time: no flush
        # brackets, no burst lane.
        module = make_module(engine="reference")
        for port in (module.edge_port, module.line_port):
            assert port._handler == module._ingress and not port._batched_rx
            assert port._burst_handler is None
            assert port.rx_flush_begin is None and port.rx_flush_end is None
        for method in ("submit_burst", "flush_begin", "flush_end"):
            assert not hasattr(module.ppe, method)

    def test_compiled_requires_fastpath(self):
        # The flow cache is not an option of the compiled tier, it is part
        # of it; the oracle never has one.
        assert make_module(engine="compiled").flow_cache is not None
        reference = make_module(engine="reference")
        assert reference.flow_cache is None
        assert not any(".flow_cache." in k for k in reference.ppe.metric_values())


class TestResolution:
    def test_explicit_config_wins(self):
        assert resolve_engine("reference", Settings(engine="compiled")) == "reference"

    def test_tier_name_fills_defaults(self):
        # Nothing else to fill in: a spec that names its tier is resolved.
        assert resolve_engine("compiled", Settings()) == "compiled"
        spec = ScenarioSpec(kind="nat-linerate", engine="compiled")
        assert spec.resolved(Settings()).engine == "compiled"

    def test_env_engine_is_used_when_no_argument(self):
        settings = Settings(engine="compiled")
        assert resolve_engine(None, settings) == "compiled"
        # The argument still beats the environment.
        assert resolve_engine("reference", settings) == "reference"

    def test_helpers(self):
        assert [validate_engine(tier) for tier in ENGINES] == list(ENGINES)
        for bad in ("warp", "batched", "", None, 16):
            with pytest.raises(ConfigError, match="unknown engine"):
                validate_engine(bad)

    def test_unknown_env_engine_fails_closed(self, capsys, monkeypatch):
        settings = Settings.from_env({"FLEXSFP_ENGINE": "batched"})
        with pytest.raises(ConfigError, match="unknown engine 'batched'"):
            resolve_engine(None, settings)
        monkeypatch.setenv("FLEXSFP_ENGINE", "batched")
        assert main(["metrics"]) == 2
        assert "unknown engine 'batched'" in capsys.readouterr().err


class TestModuleConflicts:
    def test_engine_plus_legacy_knobs_rejected(self):
        with pytest.raises(TypeError, match="fastpath"):
            make_module(engine="reference", fastpath=True)

    def test_engine_plus_batch_size_rejected(self):
        with pytest.raises(TypeError, match="batch_size"):
            make_module(engine="compiled", batch_size=8)

    def test_engine_config_carries_options(self):
        # What used to be options rides on the tier name: the fused program,
        # the flow cache and the batched/burst receive side of the data ports
        # (the only thing the fabric sees of the tier): the same handler as
        # the oracle's, in the other delivery mode.
        module = make_module(engine="compiled", settings=Settings())
        assert module.program is not None
        assert module.flow_cache is not None
        for port in (module.edge_port, module.line_port):
            assert port._handler == module._ingress and port._batched_rx
            assert port._burst_handler == module._ingress_burst
            assert port.rx_flush_begin is not None and port.rx_flush_end is not None


class TestScenarioSpecEngine:
    def test_resolved_spec_pins_the_tier(self):
        assert ScenarioSpec(kind="nat-linerate").resolved(Settings()).engine == (
            "reference"
        )
        assert ScenarioSpec(kind="nat-linerate").resolved(
            Settings(engine="compiled")
        ).engine == "compiled"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            ScenarioSpec(kind="nat-linerate", engine="warp").validate()

    def test_resolution_is_idempotent(self):
        settings = Settings()
        once = ScenarioSpec(kind="nat-linerate", engine="compiled").resolved(
            settings
        )
        assert once.resolved(settings) == once

    def test_legacy_spec_knobs_rejected(self):
        payload = ScenarioSpec(kind="nat-linerate", engine="reference").to_dict()
        assert "fastpath" not in payload and "batch_size" not in payload
        for knob, value in (("fastpath", True), ("batch_size", 16)):
            with pytest.raises(ConfigError, match=knob):
                ScenarioSpec.from_dict({**payload, knob: value})

    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(kind="nat-linerate", engine="compiled").resolved(
            Settings()
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestCliConflicts:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_engine_plus_fastpath_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["metrics", "--engine", "reference", "--fastpath"])
        assert exit_info.value.code == 2
        assert "--fastpath" in capsys.readouterr().err

    def test_engine_plus_batch_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["run", "--scenario", "nat-linerate", "--shards", "1",
                 "--engine", "compiled", "--batch", "8"]
            )  # fmt: skip
        assert exit_info.value.code == 2
        assert "--batch" in capsys.readouterr().err

    def test_engine_flag_lands_in_artifact_knobs(self, capsys):
        code, out, _ = self.run(
            capsys,
            "run",
            "--scenario",
            "nat-linerate",
            "--shards",
            "1",
            "--engine",
            "compiled",
            "--json",
        )
        assert code == 0
        knobs = json.loads(out)["knobs"]
        assert knobs["engine"] == "compiled"
        assert not {"engine_config", "fastpath", "batch_size"} & set(knobs)

    def test_bare_metrics_is_deprecation_clean(self, capsys):
        # pyproject's ``error::DeprecationWarning:repro`` filter turns any
        # deprecated call on the scenario path into a failure here.
        code, _, _ = self.run(capsys, "metrics")
        assert code == 0


def _retrofit(**kwargs):
    sim = Simulator()
    return apply_retrofit(sim, LegacySwitch(sim, "agg", num_ports=2), RetrofitPlan(), **kwargs)


#: Every spelling removed since 2.0 began, beyond the six pinned under their historical
#: test names (module ``fastpath=``/``batch_size=`` and CLI ``--fastpath``/
#: ``--batch`` next to ``--engine`` above; ``--legacy-fleet``/
#: ``--legacy-table`` in ``test_cli.py``): (what to call, the error that
#: must come back).
REMOVED_SPELLINGS = {
    "engine=batched:module": (lambda: make_module(engine="batched"), ConfigError),
    "engine=batched:spec": (
        lambda: ScenarioSpec(kind="nat-linerate", engine="batched").validate(),
        ConfigError,
    ),
    "engine=batched:matrix": (
        lambda: MatrixAxes(engines=("reference", "batched")).validate(),
        ConfigError,
    ),
    "engine=batched:cli": (lambda: main(["metrics", "--engine", "batched"]), SystemExit),
    "fastpath=:spec": (lambda: ScenarioSpec(fastpath=True), TypeError),
    "fastpath=:retrofit": (lambda: _retrofit(fastpath=True), TypeError),
    "fastpath=:gauntlet": (lambda: run_gauntlet(fastpath=True), TypeError),
    "fastpath=:matrix": (lambda: MatrixAxes(fastpath=(True,)), TypeError),
    "batch_size=:spec": (lambda: ScenarioSpec(batch_size=16), TypeError),
    "batch_size=:retrofit": (lambda: _retrofit(batch_size=16), TypeError),
    "batch_size=:gauntlet": (lambda: run_gauntlet(batch_size=16), TypeError),
    "batch_size=:engine": (
        lambda: PacketProcessingEngine(Simulator(), make_nat(), None, 6, batch_size=16),
        TypeError,
    ),
    "batched_size=:matrix": (lambda: MatrixAxes(batched_size=8), TypeError),
    "app=:module": (
        lambda: FlexSFPModule(Simulator(), "dut", app=make_nat()),
        TypeError,
    ),
    "bare-app:module": (
        lambda: FlexSFPModule(Simulator(), "dut", make_nat()),
        ConfigError,
    ),
    "--fastpath": (lambda: main(["chaos", "smoke", "--fastpath"]), SystemExit),
    "--batch": (lambda: main(["trace", "--batch", "16"]), SystemExit),
    "--fastpath:matrix": (lambda: main(["matrix", "--fastpath", "on,off"]), SystemExit),
    "--batched-size": (lambda: main(["matrix", "--batched-size", "8"]), SystemExit),
    "--fastpath:build": (lambda: main(["build", "nat", "--fastpath"]), SystemExit),
    "engine=:tenant": (lambda: TenantSpec(name="t", app="int", engine="compiled"), TypeError),
    "engine=:solo": (lambda: Deployment.solo(make_nat(), engine="compiled"), TypeError),
    "engine:tenant-key": (
        lambda: TenantSpec.from_dict({"name": "t", "app": "int", "engine": "compiled"}),
        ConfigError,
    ),
    "coalesce=:port": (lambda: Port(Simulator(), "p", coalesce=True), TypeError),
    "--fail-on-deprecated": (
        lambda: main(["metrics", "--fail-on-deprecated"]),
        SystemExit,
    ),
    # The paper artefacts live behind `flexsfp paper <what>`; the seven
    # top-level spellings are not aliases.
    **{
        f"flexsfp {what}": (lambda argv=argv: main(argv), SystemExit)
        for what, argv in {
            "table1": ["table1"],
            "table2": ["table2"],
            "table3": ["table3", "--units", "1000"],
            "power": ["power", "--app", "nat"],
            "bom": ["bom"],
            "scale": ["scale", "10"],
            "envelope": ["envelope", "10"],
        }.items()
    },
}


@pytest.mark.parametrize("spelling", REMOVED_SPELLINGS)
def test_removed_spelling_rejected(spelling, capsys):
    call, error = REMOVED_SPELLINGS[spelling]
    with pytest.raises(error) as raised:
        call()
    if error is SystemExit:
        assert raised.value.code == 2  # argparse: unrecognized argument
