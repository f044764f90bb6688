"""The bench artifact writer: one ``BENCH_<tag>.run.json`` per bench.

``benchmarks/common.py`` is a script-style helper module (not a
package), so it is loaded here by file path; the function under test is
pure library code over :mod:`repro.artifact` and the atomic writer.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.config import ENV_METRICS_DIR, Settings
from repro.obs import SCHEMA_RUN

BENCH_COMMON = Path(__file__).resolve().parent.parent / "benchmarks" / "common.py"


@pytest.fixture(scope="module")
def common():
    spec = importlib.util.spec_from_file_location("bench_common", BENCH_COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchDirSetting:
    def test_unset_means_no_export(self):
        assert Settings.from_env({}).metrics_dir is None


class TestExportBench:
    def test_no_directory_means_noop(self, common, monkeypatch):
        monkeypatch.delenv(ENV_METRICS_DIR, raising=False)
        assert common.export_bench("noop", metrics={"a": 1}) is None

    def test_writes_latest_run_document(self, common, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_METRICS_DIR, str(tmp_path))
        path = common.export_bench(
            "demo", metrics={"pps": 14.88}, summary={"frames": 6}, wall_s=0.5
        )
        assert path == tmp_path / "BENCH_demo.run.json"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        latest = json.loads(path.read_text())
        assert latest["schema"] == SCHEMA_RUN
        assert latest["source"] == "bench:demo"
        assert latest["metrics"]["pps"] == 14.88
        assert latest["summary"] == {"frames": 6}
