"""Shared fixtures for the FlexSFP reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.ppe import Direction, PPEContext
from repro.sim import Simulator


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/ corpus from the current code "
        "instead of asserting byte-identity (use after an intentional "
        "flexsfp.run/1 schema change, then review the diff)",
    )


@pytest.fixture
def regen_golden(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def make_ctx(
    direction: Direction = Direction.EDGE_TO_LINE,
    time_ns: int = 0,
    device_id: int = 0,
    queue_depth: int = 0,
) -> PPEContext:
    """Build a PPE context for direct application-level tests."""
    return PPEContext(
        time_ns=time_ns,
        direction=direction,
        device_id=device_id,
        queue_depth=queue_depth,
    )


@pytest.fixture
def ctx_edge() -> PPEContext:
    return make_ctx(Direction.EDGE_TO_LINE)


@pytest.fixture
def ctx_line() -> PPEContext:
    return make_ctx(Direction.LINE_TO_EDGE)


@pytest.fixture(scope="session")
def sweep_runs() -> dict:
    """Each shard spec's run, kept for the whole session: the matrix tests
    re-check one ``nat-linerate`` sweep instead of running it again."""
    return {}


def _run_once(runs: dict):
    from repro.parallel import run_sharded

    def run(spec):
        if spec not in runs:
            runs[spec] = run_sharded(spec)
        return runs[spec]

    return run


@pytest.fixture
def memoised_runs(sweep_runs: dict, monkeypatch: pytest.MonkeyPatch) -> None:
    """``repro.matrix`` runs each spec once per session (``flexsfp matrix``
    through ``main`` included)."""
    from repro.matrix import runner

    monkeypatch.setattr(runner, "run_sharded", _run_once(sweep_runs))


@pytest.fixture(scope="session")
def nat_progress() -> list[str]:
    return []


@pytest.fixture(scope="session")
def nat_sweep(sweep_runs: dict, nat_progress: list[str]):
    """The declared ``nat-linerate`` cells, each shard run once per session."""
    from repro.matrix import run_declared, runner

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "run_sharded", _run_once(sweep_runs))
        return run_declared("nat-linerate", progress=nat_progress.append)


@pytest.fixture(scope="session")
def nat_build():
    """The NAT design's synthesis report, built as ``flexsfp paper table1``
    and ``flexsfp paper power`` build it."""
    from repro.apps import create_app
    from repro.core.shells import ShellSpec
    from repro.hls import compile_app

    return compile_app(create_app("nat"), ShellSpec()).report
