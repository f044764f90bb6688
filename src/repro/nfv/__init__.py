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

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "crossbar": ("Crossbar",),
        "deployment": (
            "NFV_SCRUB_DPORT", "Deployment", "SteeringMatch", "TenantSpec",
            "default_nfv_tenants",
        ),
        "pricing": (
            "DeploymentPrice", "check_deployment", "deployment_report",
            "price_deployment",
        ),
    },
)
