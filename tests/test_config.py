"""repro.config: the single typed home of every FLEXSFP_* knob."""

from pathlib import Path

from repro.config import (
    Settings,
    get_settings,
    parse_float,
    parse_int,
)
from repro.core import FlexSFPModule
from repro.sim import Simulator
from repro.nfv import Deployment


def make_module(env, **kwargs):
    from repro.apps import StaticNat

    sim = Simulator()
    nat = StaticNat(capacity=16)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    return FlexSFPModule(
        sim, "dut", Deployment.solo(nat), settings=Settings.from_env(env), **kwargs
    )


class TestParsers:
    def test_parse_int_malformed_falls_back(self):
        assert parse_int("not-a-number", 7) == 7
        assert parse_int(None, 3) == 3
        assert parse_int("  12 ", 1) == 12

    def test_parse_int_minimum_clamps(self):
        assert parse_int("-5", 1, minimum=1) == 1
        assert parse_int("0", 1, minimum=1) == 1

    def test_parse_float_malformed_falls_back(self):
        assert parse_float("not-a-number", 0.5) == 0.5
        assert parse_float(None, 2.0) == 2.0
        assert parse_float(" 1.25 ", 0.0) == 1.25

    def test_parse_float_minimum_clamps(self):
        assert parse_float("-3.0", 1.0, minimum=0.0) == 0.0
        assert parse_float("0.0", 1.0, minimum=0.0) == 0.0
        assert parse_float("2.5", 1.0, minimum=0.0) == 2.5


class TestSettings:
    def test_defaults_from_empty_env(self):
        settings = Settings.from_env({})
        assert settings == Settings()
        assert settings.engine is None
        assert settings.metrics_dir is None
        assert settings.workers is None
        assert settings.start_method is None
        assert settings.shard_timeout_s is None
        assert settings.max_retries == 2
        assert settings.retry_backoff_s == 0.05

    def test_full_env(self):
        settings = Settings.from_env(
            {
                "FLEXSFP_ENGINE": " Compiled ",
                "FLEXSFP_METRICS_DIR": "out/metrics",
                "FLEXSFP_WORKERS": "4",
                "FLEXSFP_MP_START": "spawn",
                "FLEXSFP_SHARD_TIMEOUT": "30.5",
                "FLEXSFP_MAX_RETRIES": "5",
                "FLEXSFP_RETRY_BACKOFF": "0.5",
            }
        )
        assert settings.engine == "compiled"
        assert settings.metrics_dir == Path("out/metrics")
        assert settings.workers == 4
        assert settings.start_method == "spawn"
        assert settings.shard_timeout_s == 30.5
        assert settings.max_retries == 5
        assert settings.retry_backoff_s == 0.5

    def test_malformed_env_degrades_not_raises(self):
        settings = Settings.from_env(
            {
                "FLEXSFP_WORKERS": "-3",
                "FLEXSFP_MP_START": "teleport",
                "FLEXSFP_SHARD_TIMEOUT": "forever",
                "FLEXSFP_MAX_RETRIES": "many",
                "FLEXSFP_RETRY_BACKOFF": "soon",
            }
        )
        assert settings == Settings()

    def test_zero_shard_timeout_means_disabled(self):
        settings = Settings.from_env({"FLEXSFP_SHARD_TIMEOUT": "0"})
        assert settings.shard_timeout_s is None
        assert Settings.from_env(
            {"FLEXSFP_SHARD_TIMEOUT": "1.5"}
        ).shard_timeout_s == 1.5

    def test_with_overrides(self):
        base = Settings()
        tuned = base.with_overrides(engine="compiled", workers=8)
        assert (tuned.engine, tuned.workers) == ("compiled", 8)
        assert base == Settings()  # frozen: original untouched

    def test_get_settings_reads_process_env(self, monkeypatch):
        monkeypatch.setenv("FLEXSFP_WORKERS", "32")
        assert get_settings().workers == 32
        monkeypatch.delenv("FLEXSFP_WORKERS")
        assert get_settings().workers is None


class TestModuleResolution:
    """The module resolves one Settings object at construction."""

    def test_env_settings_apply_when_args_none(self):
        module = make_module({"FLEXSFP_ENGINE": "compiled"})
        assert module.engine == "compiled"
        assert module.flow_cache is not None

    def test_explicit_args_beat_settings(self):
        module = make_module({"FLEXSFP_ENGINE": "compiled"}, engine="reference")
        assert module.engine == "reference"
        assert module.flow_cache is None

    def test_process_env_respected_by_default(self, monkeypatch):
        from repro.apps import StaticNat

        monkeypatch.setenv("FLEXSFP_ENGINE", "compiled")
        sim = Simulator()
        nat = StaticNat(capacity=16)
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(sim, "dut", Deployment.solo(nat))
        assert module.engine == "compiled"
