"""The unified Scenario API: typed specs for every instrumented workload.

One :class:`ScenarioSpec` describes a complete simulated workload — which
scenario *kind* to build (NAT line-rate, chained NATs, the chaos
gauntlet, a fleet upgrade campaign), the traffic profile, the fault
plan, the engine tier, and how many independent shards a fleet-scale
run should split into.  Every module is built for its
:class:`~repro.nfv.Deployment`'s device, the prototype's MPF200T.
``spec.run()`` executes one instance; :func:`repro.parallel.run_sharded`
fans the shards out across worker processes and merges the results
deterministically (:mod:`repro.parallel` imports this module at its
top; nothing here imports the runner or the supervisor back).

Every kind starts from one skeleton, :func:`_instrumented`: a simulator,
a :class:`~repro.obs.registry.MetricsRegistry` over every component, an
optional :class:`~repro.obs.trace.Tracer`, and an optional
:class:`~repro.obs.profiler.LoopProfiler` on the event loop.  Every
kind's offered load is built by :func:`_offered_load`, and the two kinds
that retrofit a legacy switch (``chaos``, ``fleet-upgrade``) build it with
:func:`_retrofitted_switch`.  ``flexsfp metrics`` / ``flexsfp trace`` /
``flexsfp run`` and the benchmark artifact export all drive these
builders, so the numbers a CI artifact carries and the ones a test
asserts on come from the identical code path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable

from .._util import checked_fields, typed
from ..apps import StaticNat, create_app
from ..artifact.diff import is_semantic_metric
from ..config import Settings
from ..core.module import FlexSFPModule, source_burst
from ..engine import (
    ENGINE_COMPILED,
    require_engine,
    resolve_engine,
    validate_engine,
)
from ..errors import ConfigError
from ..netem import CbrSource
from ..nfv import NFV_SCRUB_DPORT, Deployment, default_nfv_tenants
from ..packet import make_udp
from ..sim.engine import Simulator
from ..sim.link import Port, connect
from .profiler import LoopProfiler
from .registry import MetricsRegistry
from .trace import Tracer

SCENARIO_KEY = b"obs-scenario-key"
DEFAULT_DURATION_S = 0.2e-3


# ----------------------------------------------------------------------
# Spec types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrafficProfile:
    """The offered load of a scenario (CBR, one frame size)."""

    rate_bps: float = 10e9
    frame_len: int = 60
    duration_s: float = DEFAULT_DURATION_S

    def validate(self) -> None:
        # A NaN passes every comparison below and an infinity never ends a
        # run: both are refused by name.
        for name in ("rate_bps", "duration_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"traffic {name} must be finite: {value}")
        if self.rate_bps <= 0:
            raise ConfigError(f"traffic rate must be positive: {self.rate_bps}")
        if self.frame_len < 60:
            raise ConfigError(f"frame_len below minimum Ethernet: {self.frame_len}")
        if self.duration_s <= 0:
            raise ConfigError(f"duration must be positive: {self.duration_s}")


# Per-kind traffic defaults: the NAT scenarios stress the line rate, the
# fleet/chaos scenarios run background load while the control plane works.
_KIND_TRAFFIC: dict[str, TrafficProfile] = {
    "nat-linerate": TrafficProfile(),
    "nat-chain": TrafficProfile(),
    "chaos": TrafficProfile(rate_bps=50e6, frame_len=512, duration_s=1.5),
    "fleet-upgrade": TrafficProfile(rate_bps=50e6, frame_len=512, duration_s=0.5),
    # The NFV kinds split one module between a DDoS-scrub tenant and an
    # INT-telemetry tenant; tenant-churn runs long enough (and slow
    # enough) to reconfigure one slot mid-run and watch the other keep
    # forwarding through the whole reprogram window.
    "nfv-chain": TrafficProfile(),
    "tenant-churn": TrafficProfile(rate_bps=20e6, frame_len=256, duration_s=0.4),
}

#: The set of kinds that accept (and resolve) a per-tenant deployment.
NFV_KINDS = ("nfv-chain", "tenant-churn")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, typed description of one simulated workload.

    ``engine`` names the execution tier (``reference`` / ``compiled``).
    Left as ``None`` it resolves from :class:`~repro.config.Settings`
    (``FLEXSFP_ENGINE``) exactly once, in :meth:`resolved` — a sharded run
    resolves in the parent so every worker executes the same tier
    regardless of its own environment.

    ``seed`` is the *root* seed: shard ``i`` of a sharded run derives its
    own seed from it (see :func:`repro.parallel.derive_shard_seed`), so
    one integer reproduces an entire fleet bit-for-bit.
    """

    kind: str = "nat-linerate"
    traffic: TrafficProfile | None = None
    fault_plan: str | None = None
    seed: int = 1
    engine: str | None = None
    trace_packets: int | None = None
    profile: bool = False
    shards: int = 1
    #: NFV kinds only: the tenant set as plain dicts (see
    #: :meth:`repro.nfv.TenantSpec.from_dict`).  Empty means "resolve the
    #: default scrub + telemetry pair"; non-NFV kinds must leave it empty.
    tenants: tuple = ()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"unknown scenario {self.kind!r}; available: "
                f"{sorted(SCENARIO_KINDS)}"
            )
        if self.traffic is not None:
            self.traffic.validate()
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1: {self.shards}")
        if self.engine is not None:
            validate_engine(self.engine)
        if self.trace_packets is not None and self.trace_packets < 0:
            raise ConfigError(
                f"trace_packets must be >= 0: {self.trace_packets}"
            )
        if self.fault_plan is not None:
            # Only a chaos spec names a plan: every other kind stays clear of
            # the gauntlet (fleet, switch, impairments).
            from ..faults.plan import NAMED_PLANS

            if self.kind != "chaos":
                raise ConfigError(
                    f"a fault plan only applies to the chaos kind, not {self.kind!r}"
                )
            if self.fault_plan not in NAMED_PLANS:
                raise ConfigError(
                    f"unknown fault plan {self.fault_plan!r}; named plans: "
                    f"{sorted(NAMED_PLANS)}"
                )
        if self.tenants:
            if self.kind not in NFV_KINDS:
                raise ConfigError(
                    f"tenants only apply to NFV kinds {list(NFV_KINDS)}, "
                    f"not {self.kind!r}"
                )
            # Typed validation (names, matches, shares, totality).
            Deployment.from_dicts(self.tenants)

    def resolved(self, settings: Settings | None = None) -> "ScenarioSpec":
        """A copy with every ``None`` knob filled in (env resolved once)."""
        self.validate()
        changes: dict[str, object] = {}
        if self.traffic is None:
            changes["traffic"] = _KIND_TRAFFIC[self.kind]
        if self.engine is None:
            changes["engine"] = resolve_engine(None, settings)
        require_engine(changes.get("engine", self.engine))
        if self.kind == "chaos" and self.fault_plan is None:
            changes["fault_plan"] = "smoke"
        if self.kind in NFV_KINDS and not self.tenants:
            changes["tenants"] = default_nfv_tenants()
        return replace(self, **changes) if changes else self

    def with_shard(self, index: int, seed: int) -> "ScenarioSpec":
        """The spec for one shard: its derived seed, shard-count 1."""
        return replace(self, seed=seed, shards=1)

    # ------------------------------------------------------------------
    def run(self) -> "ScenarioRun":
        """Build and execute one instance of this scenario."""
        spec = self.resolved()
        return SCENARIO_KINDS[spec.kind](spec)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-friendly dict (the CLI's ``--json`` spec echo)."""
        payload = asdict(self)
        if not payload["tenants"]:
            # Keep legacy spec payloads (and their digests) byte-identical.
            del payload["tenants"]
        else:
            payload["tenants"] = [dict(t) for t in payload["tenants"]]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`to_dict` form (a checkpoint journal's
        header): an unknown field, or one of the wrong type, is a
        :class:`ConfigError` naming it."""
        data = checked_fields(payload, _SPEC_TYPES, "scenario spec")
        if data.get("traffic") is not None:
            data["traffic"] = TrafficProfile(
                **checked_fields(data["traffic"], _TRAFFIC_TYPES, "traffic")
            )
            data["traffic"].validate()
        if data.get("tenants"):
            data["tenants"] = tuple(
                dict(typed(tenant, dict, f"scenario spec field 'tenants[{index}]'"))
                for index, tenant in enumerate(data["tenants"])
            )
        return cls(**data)


#: What each field of a serialised spec must be, and of its traffic block.
_NONE = type(None)
_SPEC_TYPES = {
    "kind": str, "traffic": (dict, _NONE), "fault_plan": (str, _NONE),
    "seed": int, "engine": (str, _NONE),
    "trace_packets": (int, _NONE), "profile": bool, "shards": int,
    "tenants": list,
}  # fmt: skip
_TRAFFIC_TYPES = {
    "rate_bps": (int, float), "frame_len": int, "duration_s": (int, float),
}  # fmt: skip


# ----------------------------------------------------------------------
# Run result
# ----------------------------------------------------------------------
@dataclass(eq=False)
class ScenarioRun:
    """Everything an instrumented scenario run produced.

    ``summary`` is the scenario-kind-specific result dict (e.g. the
    chaos gauntlet's robustness numbers, the upgrade campaign's report);
    ``digest()`` canonicalizes metrics + summary to JSON and hashes
    them, which is what the sharded runner compares across worker
    counts.
    """

    registry: MetricsRegistry
    modules: list[FlexSFPModule]
    tracer: Tracer | None
    summary: dict = field(default_factory=dict)

    def metrics(self) -> dict:
        return self.registry.collect()

    def histograms(self) -> dict[str, dict]:
        """Raw latency-histogram states, keyed by full metric name.

        Bucket counts (not just percentiles) — the mergeable form the
        sharded runner needs for exact histogram-merge across a fleet.
        """
        states: dict[str, dict] = {}
        for module in self.modules:
            for name, histogram in module.histogram_states().items():
                states[name] = {
                    "bounds": list(histogram.bounds),
                    "counts": list(histogram.counts),
                }
        return states

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of metrics + summary.

        Wall-clock-derived profiler metrics (``sim.profile.*``) are
        excluded — a digest must compare equal across reruns and worker
        placements, and only virtual-time results qualify.
        """
        metrics = {
            name: value
            for name, value in self.metrics().items()
            if not name.startswith("sim.profile.")
        }
        payload = {
            "metrics": metrics,
            "summary": self.summary,
            "histograms": self.histograms(),
        }
        canonical = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# The skeleton every kind shares
# ----------------------------------------------------------------------
def _instrumented(spec: ScenarioSpec) -> tuple:
    """A simulator plus the spec's registry (with ``sim.profile.*`` when
    ``spec.profile``) and tracer: where every kind's run starts."""
    sim = Simulator()
    registry = MetricsRegistry()
    tracer = Tracer(limit=spec.trace_packets) if spec.trace_packets is not None else None
    if spec.profile:
        sim.profiler = LoopProfiler()
        registry.register("sim.profile", sim.profiler)
    if tracer is not None:
        registry.register("trace", tracer)
    registry.register_value("sim.events", lambda: sim.events_processed)
    return sim, registry, tracer


def _offered_load(spec, sim, registry, peer, flows, rate_bps, template_burst=False):
    """The ``host`` port toward ``peer`` and the CBR source that loads it.

    One UDP template per flow (``make_udp`` keyword arguments), built once;
    the source cycles them frame by frame.  ``template_burst`` is the
    compiled tier's template + time-vector emission, which only a
    one-flow load may use (its factory runs once per burst).
    """
    traffic = spec.traffic
    host = Port(sim, "host", rate_bps=rate_bps, queue_bytes=1 << 22)
    connect(host, peer)
    registry.register("host", host)
    payload = bytes(max(0, traffic.frame_len - 42))
    templates = [make_udp(payload=payload, **flow) for flow in flows]
    # Every template carries the same payload: one wire size, measured once.
    (wire_size,) = {template.wire_len for template in templates}
    return CbrSource(
        sim,
        host,
        rate_bps=traffic.rate_bps,
        frame_len=traffic.frame_len,
        stop=traffic.duration_s,
        factory=lambda index, size: templates[index % len(templates)].copy(),
        burst=source_burst(spec.engine, template_burst=template_burst),
        template_burst=template_burst,
        wire_size=wire_size,
    )


def _retrofitted_switch(spec, sim, registry, tracer, policies, auth_key, retry_seed):
    """The §2.1/§4.1 deployment: a legacy aggregation switch with one
    FlexSFP per policy in ports 1..N, the fleet controller that manages
    them, and background traffic into port N+1.

    The caller cables the controller to port 0.  Returns the switch, the
    controller, the modules in port order and the traffic source.
    """
    # Loaded by the kinds that retrofit a switch only.
    from ..fleet import FleetController
    from ..switch import LegacySwitch, RetrofitPlan, apply_retrofit

    switch = LegacySwitch(sim, "agg", num_ports=len(policies) + 2, rate_bps=10e9)
    plan = RetrofitPlan()
    for port, policy in enumerate(policies, start=1):
        plan.assign(port, policy)
    retrofit = apply_retrofit(sim, switch, plan, auth_key=auth_key, engine=spec.engine)
    controller = FleetController(sim, auth_key=auth_key, retry_seed=retry_seed)
    retrofit.register_metrics(registry)
    registry.register("switch", switch)
    controller.register_metrics(registry)
    modules = [retrofit.module_at(port) for port in sorted(retrofit.modules)]
    if tracer is not None:
        for module in modules:
            module.attach_tracer(tracer)
    uplink = switch.external_port(len(policies) + 1)
    flows = ({"src_ip": "10.0.0.1", "dst_ip": "8.8.8.8"},)
    source = _offered_load(spec, sim, registry, uplink, flows, rate_bps=10e9)
    return switch, controller, modules, source


# ----------------------------------------------------------------------
# NAT scenario builders (the §5.1 quick configs)
# ----------------------------------------------------------------------
def _nat(index: int) -> StaticNat:
    nat = StaticNat(capacity=1024)
    nat.add_mapping(f"10.0.0.{index + 1}", f"198.51.100.{index + 1}")
    return nat


def _build_nat(spec: ScenarioSpec, module_count: int) -> ScenarioRun:
    traffic = spec.traffic
    sim, registry, tracer = _instrumented(spec)

    modules: list[FlexSFPModule] = []
    previous_port: Port | None = None
    for index in range(module_count):
        module = FlexSFPModule(
            sim,
            f"module{index}",
            Deployment.solo(_nat(index)),
            auth_key=SCENARIO_KEY,
            device_id=index,
            engine=spec.engine,
        )
        module.register_metrics(registry)
        if tracer is not None:
            module.attach_tracer(tracer)
        if previous_port is not None:
            connect(previous_port, module.edge_port)
        modules.append(module)
        previous_port = module.line_port

    fiber = Port(sim, "fiber", rate_bps=traffic.rate_bps, queue_bytes=1 << 22)
    connect(previous_port, fiber)
    registry.register("fiber", fiber)
    # One flow: the compiled tier moves whole bursts as template + time vector.
    flows = ({"src_ip": "10.0.0.1"},)
    compiled = spec.engine == ENGINE_COMPILED
    _offered_load(
        spec, sim, registry, modules[0].edge_port, flows, traffic.rate_bps, compiled
    )
    sim.run(until=traffic.duration_s + 0.1e-3)
    summary = {
        "kind": spec.kind,
        "modules": module_count,
        "delivered": fiber.rx.metric_values(),
    }
    return ScenarioRun(registry, modules, tracer, summary=summary)


# ----------------------------------------------------------------------
# Chaos gauntlet as a scenario kind
# ----------------------------------------------------------------------
def _build_chaos(spec: ScenarioSpec) -> ScenarioRun:
    from ..faults.gauntlet import play_gauntlet  # loaded by the chaos kind only

    return play_gauntlet(spec, spec.fault_plan)


# ----------------------------------------------------------------------
# Fleet upgrade campaign as a scenario kind
# ----------------------------------------------------------------------
FLEET_UPGRADE_MODULES = 2
FLEET_UPGRADE_SETTLE_S = 0.25
FLEET_UPGRADE_WINDOW_S = 3.0
#: The app the campaign upgrades every module to.
FLEET_UPGRADE_APP = "nat"


def _build_fleet_upgrade(spec: ScenarioSpec) -> ScenarioRun:
    """A rolling-upgrade campaign over retrofitted legacy-switch ports.

    Traffic flows host → switch → port-1 FlexSFP → sink for the whole
    window while the :class:`~repro.fleet.FleetController` upgrades every
    module from ``passthrough`` to ``nat``, one at a time with a
    health probe between — the §4.1 orchestration story, instrumented.
    """
    # Loaded by the fleet-upgrade kind only: the image compiler.
    from ..core.shells import ShellSpec
    from ..hls import compile_app
    from ..parallel.seeds import derive_shard_seed
    from ..switch import PortPolicy

    traffic = spec.traffic
    sim, registry, tracer = _instrumented(spec)
    policies = [PortPolicy("passthrough")] * FLEET_UPGRADE_MODULES
    retry_seed = derive_shard_seed(spec.seed, 0, label="fleet-retry")
    switch, controller, modules, _source = _retrofitted_switch(
        spec, sim, registry, tracer, policies, SCENARIO_KEY, retry_seed
    )
    controller.port.connect(switch.external_port(0))
    # The traffic leaves through the first retrofitted port.
    sink = Port(sim, "sink", rate_bps=10e9)
    sink.connect(switch.external_port(1))
    registry.register("sink", sink)

    target_build = compile_app(create_app(FLEET_UPGRADE_APP), ShellSpec())
    macs = [module.mgmt_mac for module in modules]
    reports: list = []
    controller.rolling_upgrade(
        macs,
        target_build.bitstream,
        slot=1,
        on_done=reports.append,
        settle_s=FLEET_UPGRADE_SETTLE_S,
    )
    sim.run(until=max(traffic.duration_s, FLEET_UPGRADE_WINDOW_S))

    report = reports[0] if reports else None
    summary = {
        "kind": spec.kind,
        "target_app": FLEET_UPGRADE_APP,
        "campaign_done": bool(reports),
        "upgraded": list(report.upgraded) if report else [],
        "failed": [list(item) for item in report.failed] if report else [],
        "rolled_back": list(report.rolled_back) if report else [],
        "ok": bool(report and report.ok),
        "delivered": sink.rx.metric_values(),
    }
    return ScenarioRun(registry, modules, tracer, summary=summary)


# ----------------------------------------------------------------------
# Multi-tenant NFV scenarios (crossbar steering + partial reconfiguration)
# ----------------------------------------------------------------------
def _tenant_digests(module: FlexSFPModule, metrics: dict, histograms: dict) -> dict:
    """Per-tenant semantic digests: SHA-256 over one tenant's subtree.

    Each digest covers exactly the ``<module>.tenant.<name>.*`` semantic
    metrics plus that tenant's latency histogram — so reconfiguring one
    tenant's slot must change *its* digest while every survivor's stays
    byte-identical, which is the isolation guarantee ``tenant-churn``
    asserts.
    """
    digests: dict[str, str] = {}
    for slot in module.slots:
        prefix = f"{module.name}.tenant.{slot.name}."
        payload = {
            "metrics": {
                name: value
                for name, value in metrics.items()
                if name.startswith(prefix) and is_semantic_metric(name)
            },
            "histograms": {
                name: state
                for name, state in histograms.items()
                if name.startswith(prefix)
            },
        }
        canonical = json.dumps(payload, sort_keys=True, default=str)
        digests[slot.name] = hashlib.sha256(canonical.encode()).hexdigest()
    return digests


#: Virtual time at which tenant-churn reprograms its first tenant's slot.
TENANT_CHURN_AT_S = 0.1
#: The app the churned tenant's slot is reprogrammed to.
TENANT_CHURN_APP = "passthrough"


def _build_nfv(spec: ScenarioSpec, churn: bool) -> ScenarioRun:
    """One module shared by ≥2 tenants behind the crossbar steering stage.

    Offered load is a three-way CBR mix sized so every tenant sees
    traffic: clean frames for the scrub tenant (its steering dport),
    martian frames the scrub app must drop, and default-dport frames for
    the catch-all tenant.  With ``churn=True`` the first tenant's slot is
    partially reconfigured mid-run while the survivors keep forwarding.
    """
    traffic = spec.traffic
    sim, registry, tracer = _instrumented(spec)

    module = FlexSFPModule(
        sim,
        "module0",
        Deployment.from_dicts(spec.tenants),
        auth_key=SCENARIO_KEY,
        device_id=0,
        engine=spec.engine,
    )
    module.register_metrics(registry)
    if tracer is not None:
        module.attach_tracer(tracer)

    fiber = Port(sim, "fiber", rate_bps=traffic.rate_bps, queue_bytes=1 << 22)
    connect(module.line_port, fiber)
    registry.register("fiber", fiber)
    # One CBR stream cycling a five-frame tenant mix: 40% clean traffic
    # for the scrub tenant (its steering dport), 20% martians the scrub
    # app exists to drop, 40% default-dport frames for the catch-all
    # tenant.  A single source keeps the wire order identical across
    # engines (concurrent saturating sources would reserve out of
    # arrival order on the shared port).  The multi-tenant module deopts
    # fused bursts at the crossbar anyway, so the compiled tier runs
    # without ``template_burst`` here — the per-index mix requires it.
    scrub = {"src_ip": "10.0.0.1", "dport": NFV_SCRUB_DPORT}
    other = {"src_ip": "10.0.0.2"}
    martian = {"src_ip": "127.0.0.1", "dport": NFV_SCRUB_DPORT}
    flows = (scrub, other, martian, scrub, other)
    _offered_load(spec, sim, registry, module.edge_port, flows, traffic.rate_bps)

    churned = module.slots[0].name if churn else None
    churn_at = min(TENANT_CHURN_AT_S, traffic.duration_s / 4)
    if churn:
        # Announced partial reconfiguration: the dark window is known up
        # front, so batch-coalesced frames near both window boundaries
        # classify by their true timestamps — identical in every engine.
        module.reconfigure_tenant(
            churned, create_app(TENANT_CHURN_APP), at_s=churn_at
        )

    # Drain tail: it fixes the run's horizon, so that every frame offered
    # has left the module when the metrics are read.  A cut settles on
    # every tier, so what the tiers read at it is equal anyway, except on
    # the shared line port, which takes two slots' frames out of arrival
    # order (ROADMAP item 3) and agrees only once drained.  The tail is a
    # fixed frame budget, not a burst size, so every tier runs to the
    # same horizon.
    drain_s = max(0.1e-3, 1024 * traffic.frame_len * 8 / traffic.rate_bps)
    sim.run(until=traffic.duration_s + drain_s)

    run = ScenarioRun(registry, [module], tracer)
    summary = {
        "kind": spec.kind,
        "tenants": [slot.name for slot in module.slots],
        "delivered": fiber.rx.metric_values(),
        "steered": {
            slot.name: module.crossbar.steered[slot.index].metric_values()
            for slot in module.slots
        },
        "tenant_digests": _tenant_digests(module, run.metrics(), run.histograms()),
    }
    if churn:
        slot = module.tenant_slot(churned)
        summary["churn"] = {
            "tenant": churned,
            "at_s": churn_at,
            "app_after": slot.app.name,
            "reboots": slot.reboots,
            "downtime_drops": slot.downtime_drops.packets,
            "survivors": [s.name for s in module.slots if s.name != churned],
        }
    run.summary = summary
    return run


# ----------------------------------------------------------------------
# Registry of scenario kinds
# ----------------------------------------------------------------------
SCENARIO_KINDS: dict[str, Callable[[ScenarioSpec], ScenarioRun]] = {
    "nat-linerate": partial(_build_nat, module_count=1),
    "nat-chain": partial(_build_nat, module_count=2),
    "chaos": _build_chaos,
    "fleet-upgrade": _build_fleet_upgrade,
    "nfv-chain": partial(_build_nfv, churn=False),
    "tenant-churn": partial(_build_nfv, churn=True),
}
