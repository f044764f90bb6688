"""The application registry: bitstream-metadata name -> application class.

Lets the module reconstruct an application from bitstream metadata after
an over-the-network reconfiguration.  A class is imported when its name
is looked up, so ``create_app("nat")`` loads ``apps/nat.py`` and nothing
else from this package.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from inspect import signature
from typing import TYPE_CHECKING, Callable

from .. import apps
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.ppe import PPEApplication


class _Registry(Mapping):
    """Registered name -> the package export holding its class."""

    def __init__(self, exports: dict[str, str]) -> None:
        self._exports = exports

    def __getitem__(self, name: str) -> Callable[..., PPEApplication]:
        return getattr(apps, self._exports[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._exports)

    def __len__(self) -> int:
        return len(self._exports)


APP_FACTORIES: Mapping[str, Callable[..., PPEApplication]] = _Registry(
    {
        "nat": "StaticNat",
        "firewall": "AclFirewall",
        "vlan": "VlanTagger",
        "tunnel": "TunnelGateway",
        "loadbalancer": "L4LoadBalancer",
        "ratelimiter": "RateLimiter",
        "telemetry": "FlowTelemetry",
        "int": "InbandTelemetry",
        "linkhealth": "LinkHealthMonitor",
        "dnsfilter": "DnsFilter",
        "ipv6filter": "Ipv6Filter",
        "punt": "CpuPunt",
        "sanitizer": "PacketSanitizer",
        "passthrough": "Passthrough",
    }
)


def create_app(name: str, params: dict | None = None) -> PPEApplication:
    """Instantiate a registered application from bitstream metadata.

    ``params`` are bound against the factory's signature first, so a
    parameter the application does not take is a :class:`ConfigError`
    naming both; an error raised by the constructor itself is its own.
    """
    factory = APP_FACTORIES.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown application {name!r}; registered: {sorted(APP_FACTORIES)}"
        )
    params = params or {}
    try:
        signature(factory).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"application {name!r} parameters: {exc}") from None
    return factory(**params)
