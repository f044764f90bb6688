"""The chaos gauntlet: a NAT'd FlexSFP under a randomized fault schedule.

One reference topology, one seeded :class:`~repro.faults.plan.FaultPlan`,
and a fleet controller that keeps probing (and, when the module degrades,
re-deploys a fresh image).  The run reports the robustness numbers the
paper's deployment story implies but never measures: packets lost to the
fault schedule, recovery time after the last fault, and what fraction of
damage incidents the module healed *by itself* (watchdog + golden-image
fallback) versus needing the fleet to intervene.

The same seed reproduces the same gauntlet bit-for-bit — schedule,
damage, and recovery stats — which is what makes a chaos result a
regression test instead of an anecdote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.module import source_burst
from ..errors import ConfigError
from ..fleet import FleetController
from ..netem import CbrSource, LossyWire
from ..packet import make_udp
from ..sim.engine import Simulator
from ..sim.link import Port
from ..switch import LegacySwitch, PortPolicy, RetrofitPlan, apply_retrofit
from .injector import FaultInjector
from .plan import (
    DUT,
    GAUNTLET_RUN_S,
    LINE_LINK,
    MGMT_LINK,
    NAMED_PLANS,
    FaultPlan,
    _derived_seed,
)

KEY = b"chaos-key"

PROBE_INTERVAL_S = 25e-3


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class GauntletResult:
    """Everything a chaos run measures (deterministic per seed)."""

    seed: int
    plan_name: str
    plan_signature: str
    faults_applied: int
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    packets_sent: int = 0
    packets_received: int = 0
    probes: int = 0
    probes_unhealthy: int = 0
    incidents: int = 0
    repairs: int = 0
    recovery_time_s: float = 0.0
    healthy_at_end: bool = False
    watchdog_reboots: int = 0
    failed_boots: int = 0
    reboots: int = 0
    degraded_at_end: bool = False

    @property
    def packets_lost(self) -> int:
        return max(0, self.packets_sent - self.packets_received)

    @property
    def loss_fraction(self) -> float:
        return self.packets_lost / self.packets_sent if self.packets_sent else 0.0

    @property
    def self_healed_fraction(self) -> float:
        """Damage incidents resolved without fleet intervention."""
        if self.incidents == 0:
            return 1.0
        return (self.incidents - min(self.repairs, self.incidents)) / self.incidents

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "plan": self.plan_name,
            "plan_signature": self.plan_signature,
            "faults_applied": self.faults_applied,
            "faults_by_kind": dict(self.faults_by_kind),
            "packets_sent": self.packets_sent,
            "packets_received": self.packets_received,
            "packets_lost": self.packets_lost,
            "loss_fraction": self.loss_fraction,
            "probes": self.probes,
            "probes_unhealthy": self.probes_unhealthy,
            "incidents": self.incidents,
            "repairs": self.repairs,
            "self_healed_fraction": self.self_healed_fraction,
            "recovery_time_s": self.recovery_time_s,
            "healthy_at_end": self.healthy_at_end,
            "watchdog_reboots": self.watchdog_reboots,
            "failed_boots": self.failed_boots,
            "reboots": self.reboots,
            "degraded_at_end": self.degraded_at_end,
        }


# ----------------------------------------------------------------------
# The gauntlet itself
# ----------------------------------------------------------------------
def run_gauntlet(
    seed: int = 1,
    plan: FaultPlan | str = "smoke",
    duration_s: float = GAUNTLET_RUN_S,
    traffic_bps: float = 50e6,
    frame_len: int = 512,
    probe_interval_s: float = PROBE_INTERVAL_S,
    engine: str | None = None,
    registry=None,
    tracer=None,
) -> GauntletResult:
    """Run one chaos gauntlet and return its measurements.

    Topology: a traffic host and a fleet controller hang off a legacy
    switch; port 1 holds a FlexSFP running the NAT whose optical side
    (via an impairable ``line-link``) leads to the measured sink.  The
    controller reaches the switch through an impairable ``mgmt-link`` and
    probes the module every ``probe_interval_s``; a probe that reports
    *degraded* triggers a re-deploy of the application image (counted as
    a repair, i.e. NOT self-healing).

    ``registry`` (a :class:`~repro.obs.registry.MetricsRegistry`)
    optionally instruments every component — module, switch, fleet
    controller, fault injector, host/sink ports — and ``tracer``
    optionally attaches per-packet stage tracing to the module; both are
    pull-based/off-by-default and do not perturb the simulation (the
    golden determinism suite pins this).
    """
    if isinstance(plan, str):
        builder = NAMED_PLANS.get(plan)
        if builder is None:
            raise ConfigError(
                f"unknown plan {plan!r}; named plans: {sorted(NAMED_PLANS)}"
            )
        plan_name = plan
        plan = builder(seed)
    else:
        plan_name = "custom"

    sim = Simulator()
    switch = LegacySwitch(sim, "agg", num_ports=3, rate_bps=10e9)
    retrofit_plan = RetrofitPlan()
    retrofit_plan.assign(
        1,
        PortPolicy(
            "nat",
            {"capacity": 128},
            configure=lambda app: app.add_mapping("10.0.0.1", "198.51.100.1"),
        ),
    )
    retrofit = apply_retrofit(
        sim,
        switch,
        retrofit_plan,
        auth_key=KEY,
        engine=engine,
    )
    module = retrofit.module_at(1)

    controller = FleetController(
        sim, auth_key=KEY, retry_seed=_derived_seed(seed, "retry")
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
    received = [0]
    sink.attach(
        lambda port, pkt, size, when: received.__setitem__(0, received[0] + 1)
        if pkt.ipv4 is not None
        else None
    )

    host = Port(sim, "host", rate_bps=10e9, queue_bytes=1 << 22)
    host.connect(switch.external_port(2))
    template = make_udp(
        src_ip="10.0.0.1", dst_ip="8.8.8.8", payload=bytes(max(0, frame_len - 42))
    )
    source = CbrSource(
        sim,
        host,
        rate_bps=traffic_bps,
        frame_len=frame_len,
        stop=duration_s,
        factory=lambda index, size: template.copy(),
        burst=source_burst(engine),
    )

    injector = FaultInjector(sim)
    injector.register_link(MGMT_LINK, mgmt_wire)
    injector.register_link(LINE_LINK, line_wire)
    injector.register_module(DUT, module)
    injector.arm(plan)

    if tracer is not None:
        module.attach_tracer(tracer)
    if registry is not None:
        registry.register_value("sim.events", lambda: sim.events_processed)
        retrofit.register_metrics(registry)
        registry.register("switch", switch)
        controller.register_metrics(registry)
        registry.register("faults", injector)
        registry.register("host", host)
        registry.register("sink", sink)

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
        if sim.now + probe_interval_s < duration_s:
            sim.schedule(probe_interval_s, probe)

    sim.schedule(probe_interval_s, probe)
    sim.run(until=duration_s + 50e-3)

    last_fault = max((t for t, _ in injector.applied), default=0.0)
    unhealthy = [t for t, ok in probe_log if not ok]
    recovery_time_s = max(0.0, max(unhealthy, default=last_fault) - last_fault)
    result = GauntletResult(
        seed=seed,
        plan_name=plan_name,
        plan_signature=plan.signature(),
        faults_applied=len(injector.applied),
        faults_by_kind={
            key.removeprefix("by_kind."): count
            for key, count in injector.metric_values().items()
            if key != "applied"
        },
        packets_sent=source.sent.packets,
        packets_received=received[0],
        probes=len(probe_log),
        probes_unhealthy=len(unhealthy),
        incidents=_count_incidents(probe_log),
        repairs=repairs[0],
        recovery_time_s=recovery_time_s,
        healthy_at_end=bool(probe_log) and probe_log[-1][1],
        watchdog_reboots=module.watchdog_reboots,
        failed_boots=module.failed_boots,
        reboots=module.reboots,
        degraded_at_end=module.degraded,
    )
    return result


def _count_incidents(probe_log: list[tuple[float, bool]]) -> int:
    """Healthy→unhealthy transitions in the probe series."""
    incidents = 0
    previous = True
    for _, healthy in probe_log:
        if previous and not healthy:
            incidents += 1
        previous = healthy
    return incidents
