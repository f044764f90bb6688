"""Retrofit planning: turning a legacy switch into an intelligent edge node.

Implements the §2.1 deployment story: pick per-port policies (per-subscriber
filtering, rate limiting, telemetry, tagging), build one FlexSFP per port,
seat them in the cages, and report the upgrade's resource/cost/power bill —
all without touching the switch model itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps import create_app
from ..core.module import FlexSFPModule
from ..core.shells import ShellKind, ShellSpec
from ..errors import ConfigError
from ..nfv import Deployment
from ..sim.engine import Simulator
from .legacy import LegacySwitch


@dataclass
class PortPolicy:
    """What one subscriber/uplink port should enforce."""

    app_name: str
    app_params: dict = field(default_factory=dict)
    shell_kind: ShellKind = ShellKind.TWO_WAY_CORE
    configure: object | None = None  # callable(app) for rules/mappings

    def build_app(self):
        app = create_app(self.app_name, self.app_params)
        if self.configure is not None:
            self.configure(app)
        return app


@dataclass
class RetrofitPlan:
    """Port index → policy for one switch."""

    policies: dict[int, PortPolicy] = field(default_factory=dict)

    def assign(self, port: int, policy: PortPolicy) -> None:
        if port in self.policies:
            raise ConfigError(f"port {port} already has a policy")
        self.policies[port] = policy


@dataclass
class RetrofitResult:
    """The modules deployed by :func:`apply_retrofit`."""

    modules: dict[int, FlexSFPModule]

    def module_at(self, port: int) -> FlexSFPModule:
        return self.modules[port]

    def total_added_power_w(self, per_module_w: float = 1.52) -> float:
        """First-order power bill of the upgrade (per-module FlexSFP draw)."""
        return per_module_w * len(self.modules)

    def register_metrics(self, registry) -> None:
        """Publish every deployed module into a registry."""
        for module in self.modules.values():
            module.register_metrics(registry)


def apply_retrofit(
    sim: Simulator,
    switch: LegacySwitch,
    plan: RetrofitPlan,
    auth_key: bytes = b"flexsfp-mgmt-key",
    engine: str | None = None,
) -> RetrofitResult:
    """Build and seat one FlexSFP per planned port.

    Ports must not have external cables connected yet (modules go into the
    cages first, then cables plug into the modules' optical sides).
    ``engine`` (a tier name; ``None`` keeps the ``FLEXSFP_ENGINE``
    default) is forwarded to every module.
    """
    modules: dict[int, FlexSFPModule] = {}
    for port_index, policy in sorted(plan.policies.items()):
        if not 0 <= port_index < switch.num_ports:
            raise ConfigError(
                f"port {port_index} out of range for {switch.num_ports}-port switch"
            )
        app = policy.build_app()
        shell = ShellSpec(kind=policy.shell_kind, line_rate_bps=switch.rate_bps)
        module = FlexSFPModule(
            sim,
            f"{switch.name}.sfp{port_index}",
            Deployment.solo(app),
            shell=shell,
            auth_key=auth_key,
            device_id=port_index,
            # Unique per-port management address so a fleet controller can
            # target each module individually through the switch.
            mgmt_mac=f"02:f5:f9:00:01:{port_index + 1:02x}",
            engine=engine,
        )
        switch.insert_flexsfp(port_index, module)
        modules[port_index] = module
    return RetrofitResult(modules=modules)
