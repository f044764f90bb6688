"""Deterministic fault injection and the chaos gauntlet.

Plans (:class:`FaultPlan`) are seeded, serializable schedules of faults;
the :class:`FaultInjector` binds them to live links and modules; the
gauntlet (:func:`run_gauntlet`) runs the reference robustness experiment
and reports recovery metrics.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "gauntlet": ("GauntletResult", "run_gauntlet"),
        "injector": ("FaultInjector",),
        "plan": (
            "ALL_FAULTS", "LINK_FAULTS", "MODULE_FAULTS", "NAMED_PLANS", "FaultEvent",
            "FaultPlan",
        ),
        "workers": ("WORKER_FAULTS", "WorkerFault", "WorkerFaultPlan"),
    },
)
