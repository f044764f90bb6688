"""Typed runtime settings: every ``FLEXSFP_*`` knob parsed in one place.

:class:`Settings` consolidates the environment switches into one frozen
dataclass with a single, tested parser (:meth:`Settings.from_env`),
resolved *once* wherever a component is constructed instead of re-read
scalar by scalar.

Recognized variables:

=========================  ====================================================
``FLEXSFP_ENGINE``         engine tier default (``reference``/``compiled``);
                           unset means ``reference``
``FLEXSFP_METRICS_DIR``    where benchmarks write their ``flexsfp.run/1``
                           artifacts (``BENCH_<tag>.run.json``)
``FLEXSFP_MP_START``       multiprocessing start method (``fork``/``spawn``/
                           ``forkserver``); unset picks the best available
=========================  ====================================================

Any other ``FLEXSFP_*`` variable is ignored.  Malformed values never raise
at import or construction time: they fall back to the documented default
(a bad ``FLEXSFP_MP_START`` should degrade a CI knob, not brick the
simulator).  The one exception is deliberate:
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
ENV_MP_START = "FLEXSFP_MP_START"

_START_METHODS = ("fork", "spawn", "forkserver")


@dataclass(frozen=True)
class Settings:
    """All environment-tunable defaults, resolved once per construction site.

    ``engine`` names the default tier consumed by
    :func:`repro.engine.resolve_engine` (validated there, not here);
    ``metrics_dir`` is where benchmarks write their run artifacts;
    ``start_method`` is how the :mod:`repro.parallel` sharded runner
    starts its workers.
    """

    engine: str | None = None
    metrics_dir: Path | None = None
    start_method: str | None = None

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "Settings":
        """Resolve every knob from ``env`` (default: ``os.environ``)."""
        if env is None:
            env = os.environ
        metrics_dir = env.get(ENV_METRICS_DIR, "").strip()
        start = env.get(ENV_MP_START, "").strip().lower()
        engine = env.get(ENV_ENGINE, "").strip().lower()
        return cls(
            engine=engine or None,
            metrics_dir=Path(metrics_dir) if metrics_dir else None,
            start_method=start if start in _START_METHODS else None,
        )

    def with_overrides(self, **changes: object) -> "Settings":
        """A copy with the given fields replaced (keyword-checked)."""
        return replace(self, **changes)


def get_settings(env: Mapping[str, str] | None = None) -> Settings:
    """The current :class:`Settings` (re-parsed per call; parsing is cheap).

    Components resolve this once at construction — a module built after
    the environment changes sees the new values, a live module does not.
    """
    return Settings.from_env(env)
