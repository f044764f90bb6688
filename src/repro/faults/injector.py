"""Binding fault plans to a live simulation.

The :class:`FaultInjector` maps target *names* to simulation objects —
:class:`~repro.netem.impairments.LossyWire` / ``ImpairedPort`` links and
:class:`~repro.core.module.FlexSFPModule` modules — then schedules each
:class:`~repro.faults.plan.FaultEvent` on the simulator clock.  Applied
events are logged with their firing time so experiments can correlate
observed damage with the injected cause.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigError
from .plan import LINK_FAULTS, FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.module import FlexSFPModule
    from ..sim.engine import Simulator


class FaultInjector:
    """Schedules a :class:`FaultPlan` against registered targets."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._links: dict[str, object] = {}
        self._modules: dict[str, FlexSFPModule] = {}
        self.applied: list[tuple[float, FaultEvent]] = []

    # ------------------------------------------------------------------
    # Target registry
    # ------------------------------------------------------------------
    def register_link(self, name: str, link: object) -> None:
        """Register a LossyWire (or ImpairedPort) under ``name``."""
        for method in ("flap", "loss_burst", "corrupt_burst", "duplicate_burst"):
            if not hasattr(link, method):
                raise ConfigError(f"link {name!r} lacks {method}()")
        self._links[name] = link

    def register_module(self, name: str, module: "FlexSFPModule") -> None:
        self._modules[name] = module

    # ------------------------------------------------------------------
    # Arming and firing
    # ------------------------------------------------------------------
    def arm(self, plan: FaultPlan) -> None:
        """Schedule every event in the plan relative to *now*.

        Raises :class:`ConfigError` up front when any event names an
        unregistered target, so a typo fails fast instead of mid-run.
        """
        for event in plan:
            registry = self._links if event.kind in LINK_FAULTS else self._modules
            if event.target not in registry:
                raise ConfigError(
                    f"fault targets unregistered "
                    f"{'link' if event.kind in LINK_FAULTS else 'module'} "
                    f"{event.target!r}"
                )
        for event in plan:
            self.sim.schedule(event.time_s, self._fire, event)

    def _fire(self, event: FaultEvent) -> None:
        self.applied.append((self.sim.now, event))
        params = event.params
        if event.kind in LINK_FAULTS:
            link = self._links[event.target]
            if event.kind == "link_flap":
                link.flap(params["duration_s"])
            elif event.kind == "link_loss_burst":
                link.loss_burst(params["duration_s"], params.get("probability", 1.0))
            elif event.kind == "link_corrupt_burst":
                link.corrupt_burst(params["duration_s"], params.get("probability", 1.0))
            else:  # link_duplicate_burst
                link.duplicate_burst(
                    params["duration_s"], params.get("probability", 1.0)
                )
            return
        module = self._modules[event.target]
        if event.kind == "flash_bitrot":
            module.flash.corrupt_bits(
                params.get("slot", 1),
                nbits=params.get("nbits", 8),
                seed=params.get("seed", 0),
            )
        elif event.kind == "flash_write_fail":
            module.flash.inject_write_failures(params.get("count", 1))
        elif event.kind == "softcore_crash":
            module.crash_softcore()
        elif event.kind == "softcore_hang":
            module.hang_softcore(params["duration_s"])
        else:  # module_reboot
            module.reboot()

    def metric_values(self) -> dict[str, int]:
        """Flat :class:`~repro.obs.registry.MetricSource` view."""
        values = {"applied": len(self.applied)}
        for _, event in self.applied:
            key = f"by_kind.{event.kind}"
            values[key] = values.get(key, 0) + 1
        return values
