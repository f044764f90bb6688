"""The import surface is a contract: what a command loads, by exact lists.

Import cost is proportional to what a command runs (every package
``__init__`` is an export table, the CLI configures and imports one
subcommand, numpy arrives with the first burst).  Wall time cannot pin
that in a test; ``sys.modules`` can, because the lists repeat exactly.
Each case runs in a fresh interpreter with ``FLEXSFP_*`` removed, and the
sorted ``repro*`` entries must equal ``tests/snapshots/import_surface.json``
— a module added to a command's path is a reviewed diff of that file
(``--regen-golden`` rewrites it).

``python -m tests.test_import_surface`` prints the whole census as JSON
(CI uploads it, so the next import regression is a diff).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FILE = Path(__file__).parent / "snapshots" / "import_surface.json"

_RUN = (
    "import contextlib, io\n"
    "from repro.cli import main\n"
    "out, err = io.StringIO(), io.StringIO()\n"
    "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "    try:\n"
    "        report['exit'] = main({argv!r})\n"
    "    except SystemExit as stop:\n"
    "        report['exit'] = stop.code\n"
    "report['stdout'], report['stderr'] = out.getvalue(), err.getvalue()\n"
)
_NO_NUMPY = "sys.modules['numpy'] = None\n"  # ``import numpy`` now raises
_FLEET = ["run", "--scenario", "fleet-upgrade", "--shards", "1", "--engine", "compiled"]
_NAT = ["run", "--scenario", "nat-linerate", "--shards", "1"]


def _cli(*argv: str, prelude: str = "") -> str:
    return prelude + _RUN.format(argv=list(argv))


#: case -> the program whose imports are counted.
CASES = {
    "import-cli": "import repro.cli\n",
    "run-fleet-upgrade": _cli(*_FLEET, "--seed", "1", "--json"),
    "chaos-reference": _cli("chaos", "smoke", "--engine", "reference", "--json"),
    "chaos-compiled": _cli("chaos", "smoke", "--engine", "compiled", "--json"),
    "run-nat-compiled": _cli(*_NAT, "--engine", "compiled", "--json"),
    "apps-help": _cli("apps", "--help"),
    "run-help": _cli("run", "--help"),
    "paper-table2": _cli("paper", "table2"),
    "create-app-nat": "from repro.apps import create_app\ncreate_app('nat')\n",
    "no-numpy-run-reference": _cli(
        *_NAT, "--engine", "reference", "--json", prelude=_NO_NUMPY
    ),
    "no-numpy-run-compiled": _cli(
        *_NAT, "--engine", "compiled", "--json", prelude=_NO_NUMPY
    ),
    "no-numpy-apps": _cli("apps", prelude=_NO_NUMPY),
    "no-numpy-table1": _cli("paper", "table1", prelude=_NO_NUMPY),
    "no-numpy-check-self": _cli("check", "--self", prelude=_NO_NUMPY),
    # Cycles hide behind whichever module happened to be imported first;
    # with every __init__ lazy that order is the caller's, so try them all.
    # obs.scenario <- parallel.runner <- parallel.supervisor is a plain
    # top-level chain: whichever of the three comes first, the rest follow.
    "run-layer-orders": (
        "import importlib, itertools\n"
        "trio = ['repro.obs.scenario', 'repro.parallel.runner', 'repro.parallel.supervisor']\n"
        "orders = list(itertools.permutations(trio))\n"
        "for order in orders:\n"
        "    for loaded in [m for m in sys.modules if m.startswith('repro')]:\n"
        "        del sys.modules[loaded]\n"
        "    for name in order:\n"
        "        importlib.import_module(name)\n"
        "report['imported'] = len(orders)\n"
    ),
    "every-module-first": (
        "import importlib, pkgutil, repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    for loaded in [m for m in sys.modules if m.startswith('repro')]:\n"
        "        del sys.modules[loaded]\n"
        "    importlib.import_module(name)\n"
        "report['imported'] = len(names)\n"
    ),
}

_PROGRAM = (
    "import argparse, json, pathlib, sys\n"
    "report = {{'baseline': len(sys.modules)}}\n"
    "{body}"
    "report['modules'] = sorted(sys.modules)\n"
    "print(json.dumps(report))\n"
)


def census(case: str) -> dict:
    """Run one case in a fresh interpreter; its ``sys.modules`` and result.

    ``baseline`` is the module count after ``import argparse, json,
    pathlib`` in that same interpreter: what any CLI pays.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        # Nothing may steer the run, and a coverage hook must not import
        # its own dependencies into the census.
        if not key.startswith(("FLEXSFP_", "COV_CORE_", "COVERAGE_"))
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM.format(body=CASES[case])],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    report["repro"] = [
        name for name in report["modules"] if name.split(".")[0] == "repro"
    ]
    return report


def loaded(report: dict, *roots: str) -> list[str]:
    """Modules of ``report`` at or under any of the dotted ``roots``."""
    return [
        name
        for name in report["modules"]
        if any(name == root or name.startswith(root + ".") for root in roots)
    ]


def compiled_bursts(report: dict) -> int:
    metrics = json.loads(report["stdout"])["metrics"]
    return sum(v for k, v in metrics.items() if k.endswith(".compiled.bursts"))


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def check_snapshot(case: str, report: dict, expected: dict, regen: bool) -> None:
    if regen:
        expected[case] = report["repro"]
        EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    assert report["repro"] == expected[case], (
        f"{case}: the repro modules this command loads changed; added "
        f"{sorted(set(report['repro']) - set(expected[case]))}, removed "
        f"{sorted(set(expected[case]) - set(report['repro']))}"
    )


def test_importing_the_cli_imports_no_subcommand(expected, regen_golden):
    report = census("import-cli")
    assert loaded(report, "numpy", "multiprocessing", "ast", "inspect") == []
    # No repro.<package>.<module>: the version, the errors, the helper.
    assert [name for name in report["repro"] if name.count(".") > 1] == []
    check_snapshot("import-cli", report, expected, regen_golden)
    # 8 on CPython 3.11: the four repro modules and what _util imports.
    assert len(report["modules"]) - report["baseline"] <= 12


@pytest.mark.parametrize(
    "case", ["run-fleet-upgrade", "chaos-reference", "chaos-compiled"]
)
def test_a_run_that_never_bursts_never_loads_numpy(case, expected, regen_golden):
    report = census(case)
    assert report["exit"] == 0
    assert loaded(report, "numpy") == []
    assert loaded(
        report,
        "repro.matrix",
        "repro.testbed",
        "repro.costmodel",
        "repro.analysis.simlint",
    ) == []
    if case != "chaos-reference":
        assert compiled_bursts(report) == 0
    check_snapshot(case, report, expected, regen_golden)


def test_the_first_burst_loads_numpy():
    # The other half of the case above: if the burst lane silently stops
    # engaging, numpy stays out and this fails.
    report = census("run-nat-compiled")
    assert report["exit"] == 0
    assert "numpy" in report["modules"]
    assert compiled_bursts(report) > 0


def test_help_imports_no_other_subcommands_dependencies():
    apps_help = census("apps-help")
    assert apps_help["exit"] == 0 and "usage: flexsfp apps" in apps_help["stdout"]
    assert loaded(apps_help, "repro.parallel", "repro.obs.scenario") == []
    run_help = census("run-help")
    assert run_help["exit"] == 0 and "--shard-timeout" in run_help["stdout"]
    assert loaded(run_help, "repro.matrix", "repro.parallel", "numpy") == []
    # One level down: `paper table2` does not read `paper power`'s --app choices.
    table2 = census("paper-table2")
    assert table2["exit"] == 0 and "FlexSFP" in table2["stdout"]
    assert loaded(table2, "repro.apps", "repro.hls", "repro.core") == []


def test_create_app_imports_one_application():
    report = census("create-app-nat")
    assert loaded(report, "repro.apps") == [
        "repro.apps",
        "repro.apps.nat",
        "repro.apps.registry",
    ]


@pytest.mark.parametrize(
    "case",
    [
        "no-numpy-run-reference",
        "no-numpy-apps",
        "no-numpy-table1",
        "no-numpy-check-self",
    ],
)
def test_the_reference_tier_and_the_reports_work_without_numpy(case):
    # pyproject.toml declares numpy; this pins how little actually needs it.
    report = census(case)
    assert report["exit"] == 0, report["stderr"]


def test_the_compiled_tier_without_numpy_is_a_config_error():
    report = census("no-numpy-run-compiled")
    assert report["exit"] == 2
    assert report["stderr"].startswith("error: ") and "numpy" in report["stderr"]
    assert "Traceback" not in report["stderr"]


def test_the_run_layer_imports_in_any_order_with_no_import_inside_a_function():
    assert census("run-layer-orders")["imported"] == 6
    # The one sharded entry point is imported at module level or not at
    # all: no function-level import of it is left to break a cycle.
    import ast

    package = ROOT / "src" / "repro"
    for module in ("obs/scenario.py", "parallel/runner.py", "parallel/supervisor.py"):
        source = (package / module).read_text()
        assert "# cycle:" not in source, module
        tree = ast.parse(source)
        nested = [
            (node.module, alias.name)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(scope)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
        assert [
            pair
            for pair in nested
            if pair[1] in ("run_sharded", "run_supervised")
            or pair[0] in ("supervisor", "runner", "parallel")
        ] == [], module
    from repro.obs.scenario import ScenarioSpec

    assert not hasattr(ScenarioSpec, "run_sharded")


def test_every_module_can_be_the_first_one_imported():
    assert census("every-module-first")["imported"] > 100


#: README "What a command loads" row -> the snapshot case it states.
README_ROWS = {
    "`import repro.cli` (also `flexsfp --help`)": "import-cli",
    "`flexsfp run --scenario fleet-upgrade --engine compiled`": "run-fleet-upgrade",
    "`flexsfp chaos smoke --engine compiled`": "chaos-compiled",
}


def test_the_readme_table_states_the_snapshot_counts(expected):
    stated = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| ") and cells[0] in README_ROWS:
            # The `repro*` column reads "<before> -> <today>".
            stated[README_ROWS[cells[0]]] = int(cells[2].split("->")[-1])
    assert stated == {case: len(expected[case]) for case in README_ROWS.values()}


if __name__ == "__main__":
    print(
        json.dumps(
            {
                case: {
                    key: value
                    for key, value in census(case).items()
                    if key in ("baseline", "modules", "repro")
                }
                for case in CASES
            },
            indent=1,
        )
    )
