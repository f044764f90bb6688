"""Typed runtime settings: every ``FLEXSFP_*`` knob parsed in one place.

:class:`Settings` consolidates the environment switches into one frozen
dataclass with a single, tested parser (:meth:`Settings.from_env`),
resolved *once* wherever a component is constructed instead of re-read
scalar by scalar.

Recognized variables:

=========================  ====================================================
``FLEXSFP_ENGINE``         engine tier default (``reference``/``compiled``);
                           unset means ``reference``
``FLEXSFP_METRICS_DIR``    benchmark metrics-artifact export directory
``FLEXSFP_BENCH_DIR``      BENCH history directory (``flexsfp.run/1``
                           artifacts + ``BENCH_*.json`` history files);
                           falls back to ``FLEXSFP_METRICS_DIR``
``FLEXSFP_WORKERS``        default worker count for sharded scenario runs
``FLEXSFP_MP_START``       multiprocessing start method (``fork``/``spawn``/
                           ``forkserver``); unset picks the best available
``FLEXSFP_SHARD_TIMEOUT``  per-shard deadline in seconds for supervised runs
                           (float > 0; unset/0 disables the deadline)
``FLEXSFP_MAX_RETRIES``    retries per failed shard beyond the first attempt
``FLEXSFP_RETRY_BACKOFF``  base of the exponential retry backoff, in seconds
=========================  ====================================================

Malformed values never raise at import or construction time: they fall
back to the documented default (a bad ``FLEXSFP_WORKERS`` should degrade a
CI knob, not brick the simulator).  The one exception is deliberate:
``FLEXSFP_ENGINE`` is carried verbatim and an unknown tier raises
:class:`~repro.errors.ConfigError` where it is consumed
(:func:`repro.engine.resolve_engine`) — falling back to ``reference`` would
let a stale CI job test the oracle against itself and stay green.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

ENV_ENGINE = "FLEXSFP_ENGINE"
ENV_METRICS_DIR = "FLEXSFP_METRICS_DIR"
ENV_BENCH_DIR = "FLEXSFP_BENCH_DIR"
ENV_WORKERS = "FLEXSFP_WORKERS"
ENV_MP_START = "FLEXSFP_MP_START"
ENV_SHARD_TIMEOUT = "FLEXSFP_SHARD_TIMEOUT"
ENV_MAX_RETRIES = "FLEXSFP_MAX_RETRIES"
ENV_RETRY_BACKOFF = "FLEXSFP_RETRY_BACKOFF"

_START_METHODS = ("fork", "spawn", "forkserver")


def parse_int(
    raw: str | None, default: int, minimum: int | None = None
) -> int:
    """Parse an integer env value; malformed input yields ``default``."""
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        return default
    if minimum is not None and value < minimum:
        return minimum
    return value


def parse_float(
    raw: str | None, default: float, minimum: float | None = None
) -> float:
    """Parse a float env value; malformed input yields ``default``."""
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        return default
    if minimum is not None and value < minimum:
        return minimum
    return value


@dataclass(frozen=True)
class Settings:
    """All environment-tunable defaults, resolved once per construction site.

    ``engine`` names the default tier consumed by
    :func:`repro.engine.resolve_engine` (validated there, not here);
    ``metrics_dir`` is where benchmarks export registry dumps;
    ``workers`` / ``start_method`` steer the :mod:`repro.parallel` sharded
    runner; ``shard_timeout_s`` / ``max_retries`` / ``retry_backoff_s``
    steer its supervisor (deadline per shard, bounded retry, exponential
    backoff base).
    """

    engine: str | None = None
    metrics_dir: Path | None = None
    bench_dir: Path | None = None
    workers: int | None = None
    start_method: str | None = None
    shard_timeout_s: float | None = None
    max_retries: int = 2
    retry_backoff_s: float = 0.05

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "Settings":
        """Resolve every knob from ``env`` (default: ``os.environ``)."""
        if env is None:
            env = os.environ
        metrics_dir = env.get(ENV_METRICS_DIR, "").strip()
        bench_dir = env.get(ENV_BENCH_DIR, "").strip()
        start = env.get(ENV_MP_START, "").strip().lower()
        engine = env.get(ENV_ENGINE, "").strip().lower()
        workers = parse_int(env.get(ENV_WORKERS), 0, minimum=0)
        shard_timeout = parse_float(env.get(ENV_SHARD_TIMEOUT), 0.0, minimum=0.0)
        return cls(
            engine=engine or None,
            metrics_dir=Path(metrics_dir) if metrics_dir else None,
            bench_dir=Path(bench_dir) if bench_dir else None,
            workers=workers if workers > 0 else None,
            start_method=start if start in _START_METHODS else None,
            shard_timeout_s=shard_timeout if shard_timeout > 0 else None,
            max_retries=parse_int(env.get(ENV_MAX_RETRIES), 2, minimum=0),
            retry_backoff_s=parse_float(
                env.get(ENV_RETRY_BACKOFF), 0.05, minimum=0.0
            ),
        )

    @property
    def bench_export_dir(self) -> Path | None:
        """Where bench artifacts/history land: bench_dir, then metrics_dir."""
        return self.bench_dir if self.bench_dir is not None else self.metrics_dir

    def with_overrides(self, **changes: object) -> "Settings":
        """A copy with the given fields replaced (keyword-checked)."""
        return replace(self, **changes)


def get_settings(env: Mapping[str, str] | None = None) -> Settings:
    """The current :class:`Settings` (re-parsed per call; parsing is cheap).

    Components resolve this once at construction — a module built after
    the environment changes sees the new values, a live module does not.
    """
    return Settings.from_env(env)
