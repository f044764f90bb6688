"""The application registry: bitstream-metadata name -> application class.

Lets the module reconstruct an application from bitstream metadata after
an over-the-network reconfiguration.  A class is imported when its name
is looked up, so ``create_app("nat")`` loads ``apps/nat.py`` and nothing
else from this package.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from inspect import signature
from typing import TYPE_CHECKING, Callable, get_args, get_origin

from .. import apps
from .._util import typed
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


def _kinds(annotation) -> tuple[type, ...]:
    """The value types a constructor annotation admits: ``float`` takes an
    int too, ``X | None`` takes ``None``, a ``tuple[...]`` or ``list[...]``
    takes either sequence (a JSON list arrives as a list)."""
    if get_origin(annotation) in (tuple, list):
        return (list, tuple)
    if args := get_args(annotation):
        return sum((_kinds(arg) for arg in args), ())
    if annotation is float:
        return (int, float)
    return (annotation,)


def create_app(name: str, params: dict | None = None) -> PPEApplication:
    """Instantiate a registered application from bitstream metadata.

    ``params`` are bound against the factory's signature first, and each
    bound value is checked against its annotation (an ``int`` is not a
    bool, a ``float`` is finite), so a parameter the application does not
    take, or a value of the wrong type, is a :class:`ConfigError` naming
    the application and the parameter; range rules stay in the
    constructors, and an error raised there is its own.
    """
    factory = APP_FACTORIES.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown application {name!r}; registered: {sorted(APP_FACTORIES)}"
        )
    params = params or {}
    accepted = signature(factory, eval_str=True)
    try:
        bound = accepted.bind(**params)
    except TypeError as exc:
        raise ConfigError(f"application {name!r} parameters: {exc}") from None
    for key, value in bound.arguments.items():
        where = f"application {name!r} parameter {key!r}"
        typed(value, _kinds(accepted.parameters[key].annotation), where)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")
    return factory(**params)
