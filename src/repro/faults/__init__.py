"""Deterministic fault injection and the chaos gauntlet.

Plans (:class:`FaultPlan`) are seeded, fingerprinted schedules of faults;
the :class:`FaultInjector` binds them to live links and modules; the
gauntlet (:func:`play_gauntlet`, the ``chaos`` scenario kind) runs the
reference robustness experiment under a named or custom plan and reports
recovery metrics in its run's ``summary``.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "gauntlet": ("play_gauntlet",),
        "injector": ("FaultInjector",),
        "plan": (
            "ALL_FAULTS", "LINK_FAULTS", "MODULE_FAULTS", "NAMED_PLANS", "FaultEvent",
            "FaultPlan",
        ),
        "workers": ("WORKER_FAULTS", "WorkerFault", "WorkerFaultPlan"),
    },
)
