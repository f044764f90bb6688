"""The chaos gauntlet: a NAT'd FlexSFP under a randomized fault schedule.

The ``chaos`` scenario kind: the retrofitted aggregation switch and the
offered load of :mod:`repro.obs.scenario`, with the gauntlet's own parts
added — impairable management and line links, a fault injector playing
one seeded :class:`~repro.faults.plan.FaultPlan`, and a fleet controller
that keeps probing (and, when the module degrades, re-deploys a fresh
image).  The run reports the robustness numbers the paper's deployment
story implies but never measures: packets lost to the fault schedule,
recovery time after the last fault, and what fraction of damage
incidents the module healed *by itself* (watchdog + golden-image
fallback) versus needing the fleet to intervene.

The numbers are the ``summary`` of the run :func:`play_gauntlet` returns;
there is no second result type.  A named plan runs as the ``chaos`` kind
(``flexsfp run --scenario chaos --plan NAME`` or ``flexsfp chaos NAME``,
one shard of it), a custom :class:`~repro.faults.plan.FaultPlan` through
:func:`play_gauntlet` directly.  The same seed reproduces the same
gauntlet bit-for-bit — schedule, damage, and recovery stats — which is
what makes a chaos result a regression test instead of an anecdote.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..netem import LossyWire
from ..sim.link import Port
from ..switch import PortPolicy
from .injector import FaultInjector
from .plan import (
    DUT,
    LINE_LINK,
    MGMT_LINK,
    NAMED_PLANS,
    FaultPlan,
    _derived_seed,
)

KEY = b"chaos-key"

PROBE_INTERVAL_S = 25e-3


# ----------------------------------------------------------------------
# The gauntlet itself
# ----------------------------------------------------------------------
def play_gauntlet(spec, plan: FaultPlan | str):
    """Build and run the gauntlet of a ``chaos`` spec under ``plan`` (a
    named plan, drawn at ``spec.seed``, or any :class:`FaultPlan`); returns
    the instrumented :class:`~repro.obs.scenario.ScenarioRun`, whose
    ``summary`` holds the robustness numbers.

    The ``chaos`` kind plays its named plan through here; a custom plan
    has no other door.  Topology: the retrofitted aggregation switch of
    :func:`~repro.obs.scenario._retrofitted_switch` with one FlexSFP
    running the NAT in port 1, whose optical side (via an impairable
    ``line-link``) leads to the measured sink.  The controller reaches
    the switch through an impairable ``mgmt-link`` and probes the module
    every :data:`PROBE_INTERVAL_S`; a probe that reports *degraded*
    triggers a re-deploy of the application image (counted as a repair,
    i.e. NOT self-healing).
    """
    from ..obs.scenario import ScenarioRun, _instrumented, _retrofitted_switch

    spec = spec.resolved()
    if isinstance(plan, str):
        builder = NAMED_PLANS.get(plan)
        if builder is None:
            raise ConfigError(
                f"unknown plan {plan!r}; named plans: {sorted(NAMED_PLANS)}"
            )
        plan_name = plan
        plan = builder(spec.seed)
    else:
        plan_name = "custom"

    traffic = spec.traffic
    seed = spec.seed
    sim, registry, tracer = _instrumented(spec)
    nat = PortPolicy(
        "nat",
        {"capacity": 128},
        configure=lambda app: app.add_mapping("10.0.0.1", "198.51.100.1"),
    )
    switch, controller, (module,), source = _retrofitted_switch(
        spec, sim, registry, tracer, [nat], KEY, _derived_seed(seed, "retry")
    )

    mgmt_wire = LossyWire(
        sim, MGMT_LINK, rate_bps=1e9, seed=_derived_seed(seed, MGMT_LINK)
    )
    controller.port.connect(mgmt_wire.a)
    mgmt_wire.b.connect(switch.external_port(0))

    line_wire = LossyWire(
        sim, LINE_LINK, rate_bps=10e9, seed=_derived_seed(seed, LINE_LINK)
    )
    line_wire.a.connect(switch.external_port(1))
    sink = Port(sim, "sink", rate_bps=10e9)
    sink.connect(line_wire.b)
    registry.register("sink", sink)
    received = [0]
    sink.attach(
        lambda port, pkt, size, when: received.__setitem__(0, received[0] + 1)
        if pkt.ipv4 is not None
        else None
    )

    injector = FaultInjector(sim)
    injector.register_link(MGMT_LINK, mgmt_wire)
    injector.register_link(LINE_LINK, line_wire)
    injector.register_module(DUT, module)
    injector.arm(plan)
    registry.register("faults", injector)

    # Controller-side health probing + degraded-module rescue.
    probe_log: list[tuple[float, bool]] = []
    repairs = [0]
    repair_in_flight = [False]

    def on_probe(reply: dict | None) -> None:
        healthy = bool(reply and reply.get("ok") and not reply.get("degraded"))
        probe_log.append((sim.now, healthy))
        if reply and reply.get("degraded") and not repair_in_flight[0]:
            repair_in_flight[0] = True
            repairs[0] += 1
            controller.deploy(
                module.mgmt_mac,
                module.build.bitstream,
                slot=1,
                on_done=lambda ok, reason: repair_in_flight.__setitem__(0, False),
            )

    def probe() -> None:
        controller.hello(module.mgmt_mac, on_probe)
        if sim.now + PROBE_INTERVAL_S < traffic.duration_s:
            sim.schedule(PROBE_INTERVAL_S, probe)

    sim.schedule(PROBE_INTERVAL_S, probe)
    sim.run(until=traffic.duration_s + 50e-3)

    last_fault = max((t for t, _ in injector.applied), default=0.0)
    unhealthy = [t for t, ok in probe_log if not ok]
    sent, incidents = source.sent.packets, _count_incidents(probe_log)
    lost = max(0, sent - received[0])
    summary = {
        "seed": seed,
        "plan": plan_name,
        "plan_signature": plan.signature(),
        "faults_applied": len(injector.applied),
        "faults_by_kind": {
            key.removeprefix("by_kind."): count
            for key, count in injector.metric_values().items()
            if key != "applied"
        },
        "packets_sent": sent,
        "packets_received": received[0],
        "packets_lost": lost,
        "loss_fraction": lost / sent if sent else 0.0,
        "probes": len(probe_log),
        "probes_unhealthy": len(unhealthy),
        "incidents": incidents,
        "repairs": repairs[0],
        # Damage incidents resolved without fleet intervention.
        "self_healed_fraction": (
            (incidents - min(repairs[0], incidents)) / incidents if incidents else 1.0
        ),
        "recovery_time_s": max(0.0, max(unhealthy, default=last_fault) - last_fault),
        "healthy_at_end": bool(probe_log) and probe_log[-1][1],
        "watchdog_reboots": module.watchdog_reboots,
        "failed_boots": module.failed_boots,
        "reboots": module.reboots,
        "degraded_at_end": module.degraded,
    }
    return ScenarioRun(registry, [module], tracer, summary=summary)


def _count_incidents(probe_log: list[tuple[float, bool]]) -> int:
    """Healthy→unhealthy transitions in the probe series."""
    incidents = 0
    previous = True
    for _, healthy in probe_log:
        if previous and not healthy:
            incidents += 1
        previous = healthy
    return incidents
