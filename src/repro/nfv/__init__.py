"""Multi-tenant NFV deployments: many functions, one cable.

The paper's vision is a set of lightweight network functions living at
the optical boundary.  This package lifts the module API from "one app
per cable" to an ordered set of *tenants* sharing one FPGA:

* :mod:`repro.nfv.deployment` — the typed deployment API:
  :class:`SteeringMatch` (which ingress frames a tenant claims),
  :class:`TenantSpec` (name, app, match, resource share)
  and :class:`Deployment` (ordered tenant slots + shell/device).
* :mod:`repro.nfv.crossbar` — the runtime crosspoint-steering stage
  that partitions every data-plane frame to exactly one tenant slot.
* :mod:`repro.nfv.pricing` — static feasibility: the crossbar plus
  per-slot partitions priced by the FPGA estimator, over-subscription
  and per-tenant line-rate surfaced as `flexsfp check` findings.
"""

from .crossbar import Crossbar
from .deployment import (
    NFV_SCRUB_DPORT,
    Deployment,
    SteeringMatch,
    TenantSpec,
    default_nfv_tenants,
)
from .pricing import DeploymentPrice, check_deployment, price_deployment

__all__ = [
    "NFV_SCRUB_DPORT",
    "Crossbar",
    "Deployment",
    "DeploymentPrice",
    "SteeringMatch",
    "TenantSpec",
    "check_deployment",
    "default_nfv_tenants",
    "price_deployment",
]
