"""The engine tier: one validated value with two members.

Two engines execute the same packet-processing semantics at different
simulation speeds:

``reference``
    :class:`~repro.core.ppe.ReferenceEngine` — one frame per event through
    a plain FIFO server, fed one deliver event per frame
    (:meth:`~repro.sim.link.Port.attach`).  The semantic oracle the fast
    engine is differential-tested against.
``compiled``
    :class:`~repro.core.ppe.PacketProcessingEngine` — reserve-at-submit
    service with grouped processing, a flow cache, fused per-flow recipe
    programs compiled from verified pipeline IR
    (:mod:`repro.hls.executor`) and a struct-of-arrays burst lane
    through ports, sources, and the PPE; its module's data ports hand the
    same receive handler to :meth:`~repro.sim.link.Port.attach_batch`
    instead, so batched delivery is the only thing the fabric sees of the
    tier.  Frames a recipe cannot handle deopt to the exact per-frame
    arithmetic one by one, so results are bit-identical to ``reference``
    by construction.

The tier is the only engine knob: modules, switches,
:class:`~repro.obs.scenario.ScenarioSpec`, ``MatrixAxes`` and the CLI all
take the tier name, and :func:`resolve_engine` is the one place a missing
name falls back to ``FLEXSFP_ENGINE`` and then to ``reference``.
"""

from __future__ import annotations

from .errors import ConfigError

ENGINE_REFERENCE = "reference"
ENGINE_COMPILED = "compiled"
ENGINES = (ENGINE_REFERENCE, ENGINE_COMPILED)


def validate_engine(engine: object) -> str:
    """``engine`` if it names a tier; :class:`ConfigError` otherwise."""
    if engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}; known: {list(ENGINES)}")
    return engine


def resolve_engine(engine: str | None = None, settings=None) -> str:
    """The tier to run: ``engine``, else ``FLEXSFP_ENGINE``, else reference.

    An unknown name from either source raises
    :class:`~repro.errors.ConfigError` — a stale ``FLEXSFP_ENGINE`` must
    fail the run, not silently test the oracle against itself.
    """
    if engine is None:
        if settings is None:
            from .config import get_settings

            settings = get_settings()
        engine = settings.engine
    return ENGINE_REFERENCE if engine is None else validate_engine(engine)


def require_engine(engine: str) -> None:
    """:class:`ConfigError` unless this interpreter can run tier ``engine``.

    The compiled tier's burst lane is numpy code that the first burst
    imports; a host without numpy hears so when the spec is resolved, not
    as a ``ModuleNotFoundError`` from the middle of ``sim.run()``.
    """
    if engine == ENGINE_COMPILED:
        from importlib.util import find_spec

        if find_spec("numpy") is None:
            raise ConfigError(
                "engine 'compiled' needs numpy for its burst lane and numpy "
                "is not installed; install it or run with engine 'reference'"
            )
