"""repro.config: the single typed home of every FLEXSFP_* knob."""

from pathlib import Path

from repro.config import Settings, get_settings
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


class TestSettings:
    def test_defaults_from_empty_env(self):
        settings = Settings.from_env({})
        assert settings == Settings()
        assert settings.engine is None
        assert settings.metrics_dir is None
        assert settings.start_method is None

    def test_full_env(self):
        settings = Settings.from_env(
            {
                "FLEXSFP_ENGINE": " Compiled ",
                "FLEXSFP_METRICS_DIR": "out/metrics",
                "FLEXSFP_MP_START": "spawn",
            }
        )
        assert settings == Settings(
            engine="compiled",
            metrics_dir=Path("out/metrics"),
            start_method="spawn",
        )

    def test_malformed_env_degrades_not_raises(self):
        settings = Settings.from_env(
            {
                "FLEXSFP_MP_START": "teleport",
                "FLEXSFP_METRICS_DIR": "   ",
                # Removed knobs: still set somewhere, they are ignored like
                # any unknown variable.
                "FLEXSFP_BENCH_DIR": "out/bench",
                "FLEXSFP_WORKERS": "4",
                "FLEXSFP_SHARD_TIMEOUT": "30.5",
                "FLEXSFP_MAX_RETRIES": "5",
                "FLEXSFP_RETRY_BACKOFF": "0.5",
            }
        )
        assert settings == Settings()

    def test_get_settings_reads_process_env(self, monkeypatch):
        monkeypatch.setenv("FLEXSFP_MP_START", "spawn")
        assert get_settings().start_method == "spawn"
        monkeypatch.delenv("FLEXSFP_MP_START")
        assert get_settings().start_method is None


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
