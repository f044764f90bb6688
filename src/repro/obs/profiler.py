"""Event-loop profiling hooks: where does simulation wall-clock go?

Perf work on the simulator (batching, flow caching, coalescing) needs a
real hot-path breakdown, not guesses.  :class:`LoopProfiler` installs into
:class:`~repro.sim.engine.Simulator` (``sim.profiler = LoopProfiler()``)
and attributes the wall-clock cost of every dispatched event to the
*component class* that handled it — ``PacketProcessingEngine``, ``Port``,
``LegacySwitch``, … — by inspecting the callback's bound instance.

The profiler is off by default (``sim.profiler is None``); the event loop
pays a single attribute load per event when disabled.  Wall-clock numbers
are inherently nondeterministic, so profiler output is never part of a
golden comparison; virtual-time statistics stay byte-identical whether a
profiler is installed or not.
"""

from __future__ import annotations

from typing import Callable


class ComponentProfile:
    """Accumulated wall-clock cost of one component class."""

    __slots__ = ("key", "calls", "wall_s", "max_s")

    def __init__(self, key: str) -> None:
        self.key = key
        self.calls = 0
        self.wall_s = 0.0
        self.max_s = 0.0

    def add(self, elapsed_s: float) -> None:
        self.calls += 1
        self.wall_s += elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s


class LoopProfiler:
    """Per-component-class wall-clock accounting for the event loop."""

    def __init__(self) -> None:
        self.profiles: dict[str, ComponentProfile] = {}
        self._key_cache: dict[object, str] = {}

    def component_key(self, callback: Callable) -> str:
        """Attribution key for an event callback.

        Bound methods attribute to their instance's class name; plain
        functions to the module-level function or class that defines them
        (the first segment of their qualname, so a closure's ``<locals>``
        never reaches a metric name); anything else to its type's name.
        """
        cached = self._key_cache.get(callback)
        if cached is not None:
            return cached
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            key = type(owner).__name__
        else:
            qualname = getattr(callback, "__qualname__", None)
            key = (qualname or type(callback).__name__).split(".", 1)[0].strip("<>")
        self._key_cache[callback] = key
        return key

    def record(self, callback: Callable, elapsed_s: float) -> None:
        """Charge ``elapsed_s`` of wall clock to ``callback``'s component."""
        key = self.component_key(callback)
        profile = self.profiles.get(key)
        if profile is None:
            profile = self.profiles[key] = ComponentProfile(key)
        profile.add(elapsed_s)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_wall_s(self) -> float:
        return sum(p.wall_s for p in self.profiles.values())

    def report(self) -> list[dict[str, object]]:
        """Rows sorted by descending wall-clock share."""
        total = self.total_wall_s
        rows = []
        for profile in sorted(
            self.profiles.values(), key=lambda p: (-p.wall_s, p.key)
        ):
            rows.append(
                {
                    "component": profile.key,
                    "calls": profile.calls,
                    "wall_s": profile.wall_s,
                    "share": profile.wall_s / total if total > 0 else 0.0,
                    "max_event_s": profile.max_s,
                }
            )
        return rows

    def metric_values(self) -> dict[str, int | float]:
        """Flat metric view (``<Component>.calls`` / ``<Component>.wall_s``)."""
        values: dict[str, int | float] = {}
        for key in sorted(self.profiles):
            profile = self.profiles[key]
            values[f"{key}.calls"] = profile.calls
            values[f"{key}.wall_s"] = profile.wall_s
        return values

    def clear(self) -> None:
        self.profiles.clear()
        self._key_cache.clear()
