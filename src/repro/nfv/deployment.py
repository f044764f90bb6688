"""The typed deployment API: tenants, steering matches, deployments.

A :class:`Deployment` is the unit of provisioning for a FlexSFP module:
an ordered list of :class:`TenantSpec` slots, each naming the network
function it runs, the ingress frames it claims (:class:`SteeringMatch`)
and the fraction of the app partition it may occupy; the engine tier is
the module's, for every slot.  ``FlexSFPModule(sim, name, deployment)``
is the constructor, and :meth:`Deployment.solo` wraps a single
application as a one-slot deployment.

Steering is first-match-wins in slot order, and the *last* tenant must
carry the wildcard match — that invariant makes the crossbar a total
function from frames to tenants, so every data-plane frame lands in
exactly one slot (the partition property the isolation tests assert).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping

from .._util import checked_fields, ip_to_int
from ..errors import ConfigError
from ..fpga.resources import FPGADevice, MPF200T

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports nfv)
    from ..core.ppe import PPEApplication
    from ..packet import Packet

#: Tenant names become metric-name segments (``<module>.tenant.<name>.*``),
#: so they must be single dotted-name segments.
_TENANT_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

#: UDP destination port the canonical scrub tenant claims in the
#: ``nfv-chain`` / ``tenant-churn`` scenarios.
NFV_SCRUB_DPORT = 9099


@dataclass(frozen=True)
class SteeringMatch:
    """Which ingress frames a tenant claims at the crossbar.

    All fields ``None`` is the wildcard match (claims everything) — the
    catch-all that the last tenant of every deployment must carry.  A
    non-wildcard match claims IPv4 frames whose UDP destination port
    and/or destination prefix agree; non-IP frames only ever match the
    wildcard, so they flow to the catch-all tenant.
    """

    udp_dport: int | None = None
    dst_ip: str | None = None
    prefix_len: int = 32

    def __post_init__(self) -> None:
        if self.udp_dport is not None and not 0 <= self.udp_dport <= 0xFFFF:
            raise ConfigError(f"udp_dport {self.udp_dport} outside 0..65535")
        if not 0 <= self.prefix_len <= 32:
            raise ConfigError(f"prefix_len {self.prefix_len} outside 0..32")
        if self.dst_ip is not None:
            # Validate eagerly so a typo fails at spec time, not steer time.
            ip_to_int(self.dst_ip)

    @property
    def is_wildcard(self) -> bool:
        return self.udp_dport is None and self.dst_ip is None

    def matches(self, packet: Packet) -> bool:
        """Does this rule claim *packet*?  Wildcard claims everything."""
        if self.is_wildcard:
            return True
        ip = packet.ipv4
        if ip is None:
            return False
        if self.udp_dport is not None:
            udp = packet.udp
            if udp is None or udp.dport != self.udp_dport:
                return False
        if self.dst_ip is not None:
            shift = 32 - self.prefix_len
            if (ip.dst >> shift) != (ip_to_int(self.dst_ip) >> shift):
                return False
        return True

    def describe(self) -> dict[str, Any]:
        """Stable JSON-friendly form recorded in artifact knob blocks."""
        out: dict[str, Any] = {}
        if self.udp_dport is not None:
            out["udp_dport"] = self.udp_dport
        if self.dst_ip is not None:
            out["dst_ip"] = self.dst_ip
            out["prefix_len"] = self.prefix_len
        return out

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any] | None, where: str = "steering match"
    ) -> SteeringMatch:
        """Build a match from its serialized form; an unknown key (a misspelt
        ``udp_dport`` would parse as the wildcard and claim every frame) or
        a non-integer port or prefix length is a ConfigError naming it."""
        return cls(**checked_fields(payload or {}, _MATCH_TYPES, where))


_MATCH_TYPES = {
    "udp_dport": (int, type(None)), "dst_ip": (str, int, type(None)),
    "prefix_len": int,
}  # fmt: skip


@dataclass(frozen=True)
class TenantSpec:
    """One tenant slot: a network function plus its steering and budget.

    ``app`` is either a registry name (``"sanitizer"``) instantiated at
    deploy time with ``params``, or an already-configured
    :class:`~repro.core.ppe.PPEApplication` instance (the form the
    ``Deployment.solo`` migration shim uses for e.g. a ``StaticNat``
    with mappings loaded).
    """

    name: str
    app: str | PPEApplication
    match: SteeringMatch = field(default_factory=SteeringMatch)
    share: float = 1.0
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not _TENANT_NAME_RE.match(self.name):
            raise ConfigError(
                f"tenant name {self.name!r} must match [A-Za-z0-9_-]+ "
                "(it becomes a metric-name segment)"
            )
        if not 0.0 < self.share <= 1.0:
            raise ConfigError(
                f"tenant {self.name!r} share {self.share} outside (0, 1]"
            )
        if isinstance(self.params, dict):
            # Accept a dict for ergonomics; store the hashable form.
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))

    @property
    def app_name(self) -> str:
        return self.app if isinstance(self.app, str) else self.app.name

    def build_app(self) -> PPEApplication:
        """Materialise the tenant's application instance."""
        if not isinstance(self.app, str):
            return self.app
        from ..apps import create_app

        return create_app(self.app, dict(self.params))

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "app": self.app_name,
            "match": self.match.describe(),
            "share": self.share,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> TenantSpec:
        """Build a tenant from its serialized form; fails closed.

        A payload that is not a mapping, lacks ``name`` / ``app`` or
        carries a key this class does not know is a
        :class:`~repro.errors.ConfigError`, never a silent default.
        """
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"a tenant must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown tenant field(s) {unknown} (known: {sorted(known)})"
            )
        missing = sorted({"name", "app"} - set(payload))
        if missing:
            raise ConfigError(f"tenant is missing required field(s) {missing}")
        params = payload.get("params") or {}
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        try:
            return cls(
                name=str(payload["name"]),
                app=str(payload["app"]),
                match=SteeringMatch.from_dict(
                    payload.get("match"), f"tenant {payload['name']!r} match"
                ),
                share=float(payload.get("share", 1.0)),
                params=tuple(params),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"malformed tenant {payload.get('name')!r}: {exc}"
            ) from exc


@dataclass(frozen=True)
class Deployment:
    """An ordered set of tenant slots sharing one module.

    ``device`` is the FPGA the module is built for (the prototype's
    MPF200T unless set); the shell is the module's, passed to
    :class:`~repro.core.module.FlexSFPModule` by whoever seats it.
    Validation enforces structure only (names, matches, per-tenant
    shares); whether the *sum* of shares and the priced partitions
    actually fit the FPGA is the static feasibility check
    (:func:`repro.nfv.check_deployment`), surfaced by ``flexsfp check``
    and enforced at module construction.
    """

    tenants: tuple[TenantSpec, ...]
    device: FPGADevice = MPF200T

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        self.validate()

    def validate(self) -> None:
        if not self.tenants:
            raise ConfigError("a deployment needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in deployment: {names}")
        if not self.tenants[-1].match.is_wildcard:
            raise ConfigError(
                "the last tenant must carry the wildcard steering match "
                "(the catch-all that makes crossbar steering total)"
            )

    @classmethod
    def solo(
        cls, app: str | PPEApplication, *, device: FPGADevice = MPF200T
    ) -> Deployment:
        """A one-tenant deployment: the single-function cable."""
        return cls(tenants=(TenantSpec(name="default", app=app),), device=device)

    @property
    def multi_tenant(self) -> bool:
        return len(self.tenants) > 1

    def tenant(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise ConfigError(
            f"no tenant {name!r} in deployment "
            f"(tenants: {[t.name for t in self.tenants]})"
        )

    def share_total(self) -> float:
        return sum(tenant.share for tenant in self.tenants)

    def describe(self) -> dict[str, Any]:
        return {"tenants": [tenant.describe() for tenant in self.tenants]}

    @classmethod
    def from_dicts(cls, tenants: Any, *, device: FPGADevice = MPF200T) -> Deployment:
        """Build a deployment from serialized tenant payloads."""
        if not isinstance(tenants, (list, tuple)):
            raise ConfigError(
                f"tenants must be a list of objects, got {type(tenants).__name__}"
            )
        return cls(
            tenants=tuple(TenantSpec.from_dict(t) for t in tenants), device=device
        )


def default_nfv_tenants() -> tuple[dict[str, Any], ...]:
    """The canonical DDoS-scrub + INT-telemetry pair (serialized form).

    The ``nfv-chain`` and ``tenant-churn`` scenario kinds resolve their
    tenant set from this when the spec does not name one: a packet
    sanitizer claiming the scrub service port, and the in-band telemetry
    source as the wildcard catch-all.
    """
    return (
        {
            "name": "scrub",
            "app": "sanitizer",
            "match": {"udp_dport": NFV_SCRUB_DPORT},
            "share": 0.5,
        },
        {"name": "telemetry", "app": "int", "match": {}, "share": 0.5},
    )
