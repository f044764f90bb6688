"""The bundled examples must stay runnable (they are living documentation)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

# What each example must mention in its output to count as "worked".
EXPECTED_MARKERS = {
    "quickstart.py": ["198.51.100.1", "Achieved goodput"],
    "in_cable_microservice.py": ["icmp_seq=3", "forwarded through the cable: 1"],
    "legacy_switch_retrofit.py": ["DNS blocked:  1", "policed"],
    "inline_telemetry.py": ["telemetry reports", "INT shim stripped: True"],
    "ota_reprogramming.py": ["'firewall'", "downtime drops"],
    "xdp_program.py": ["syn-guard", "legit packets delivered:   4 / 4"],
    "pon_sla_enforcement.py": ["SLA differentiation", "gold delivered 400"],
    "fleet_orchestration.py": [
        "discovered 4 modules",
        "upgrade complete: ok=True, upgraded=3",
    ],
}


def test_every_example_has_expectations():
    names = {path.name for path in EXAMPLES}
    assert names == set(EXPECTED_MARKERS), "keep EXPECTED_MARKERS in sync"


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(example)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    for marker in EXPECTED_MARKERS[example.name]:
        assert marker in result.stdout, (
            f"{example.name} output missing {marker!r}:\n{result.stdout}"
        )
