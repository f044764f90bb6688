"""The FlexSFP module: shell + PPE + control plane + flash, as one device.

This is the top-level object a simulation plugs into a host NIC cage or a
switch port.  It owns two (or three) simulated ports, an arbiter that
demultiplexes management traffic to the embedded control plane, a
:class:`PacketProcessingEngine` running the deployed application at its
synthesized speed, and the SPI flash + reboot machinery that makes
over-the-network reprogramming real.

Latency constants (documented substitutes for measured silicon values):

* ``TRANSCEIVER_LATENCY_S`` — one SerDes+PCS crossing (~40 ns, typical for
  10GBASE-R retimers).
* ``PASSTHROUGH_LATENCY_S`` — the unprocessed direction of the
  One-Way-Filter shell (merge + retime, no PPE).
* ``CONTROL_PLANE_LATENCY_S`` — softcore turnaround for one management
  command (a few µs of RISC-V work).
* ``RECONFIG_DOWNTIME_S`` — fabric reprogram time from SPI flash; the
  module drops traffic while dark, exactly like the real device.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable

from .._util import mac_to_int
from ..config import Settings
from ..engine import ENGINE_COMPILED, resolve_engine
from ..errors import BitstreamError, CompileError, ConfigError, FlashError
from ..fpga.bitstream import Bitstream
from ..fpga.flash import SPIFlash
from ..fpga.resources import FPGADevice, MPF200T
from ..nfv import Crossbar, Deployment, check_deployment
from ..packet import BROADCAST_MAC, Packet
from ..sim.engine import Simulator, Window
from ..sim.link import Port
from ..sim.stats import Counter
from .arbiter import Arbiter, is_mgmt_frame
from .controlplane import ControlPlane
from .flowcache import FlowCache
from .mgmt import mgmt_frame
from .ppe import (
    BURST_FRAMES,
    TEMPLATE_BURST_FRAMES,
    Direction,
    PacketProcessingEngine,
    PPEApplication,
    ReferenceEngine,
    Verdict,
)
from .services import ServiceRegistry
from .shells import PROTOTYPE_SHELL, ShellKind, ShellSpec

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..hls.ir import PipelineSpec

TRANSCEIVER_LATENCY_S = 40e-9
PASSTHROUGH_LATENCY_S = 25e-9
CONTROL_PLANE_LATENCY_S = 5e-6
RECONFIG_DOWNTIME_S = 120e-3
WATCHDOG_TIMEOUT_S = 50e-3

DEFAULT_AUTH_KEY = b"flexsfp-mgmt-key"


def source_burst(engine: str | None, template_burst: bool = False) -> int:
    """Frames a traffic source emits per tick on tier ``engine``.

    A per-tier source setting, whatever the source feeds, and the one
    place a scenario builder learns it: on ``compiled``,
    :data:`TEMPLATE_BURST_FRAMES` for a source that moves template bursts
    (``template_burst``) and :data:`BURST_FRAMES` for one that emits
    frames (one source burst fills one PPE group); one on ``reference``;
    ``None`` resolves as a module's engine does.  A burst changes no
    frame, time or drop of the source
    (:class:`~repro.netem.TrafficSource`), only how many tick events
    emit them.
    """
    if resolve_engine(engine) != ENGINE_COMPILED:
        return 1
    return TEMPLATE_BURST_FRAMES if template_burst else BURST_FRAMES


class TenantSlot:
    """One function's partition of the fabric; every module has at least one.

    Each slot owns its application instance and the pipeline it was
    verified with, synthesized build, packet-processing engine, flow
    cache, boot flash, drop counters and pre-bound completion callbacks.
    A slot going dark (its partition being reprogrammed) or degraded
    (both its boot images unusable) affects only the frames that reach it.

    A solo slot and a tenant slot differ in names only: a solo slot's
    metric ``base`` is the module name and its counters and flash are the
    module's own; a tenant slot lives behind the crossbar under
    ``<module>.tenant.<name>`` with a two-image flash (0 = the tenant's
    golden image, 1 = staging for partial reconfiguration).
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        spec,
        base: str,
        flash: SPIFlash,
        counters: tuple[Counter, Counter, Counter] | None = None,
    ) -> None:
        self.sim = sim
        self.index = index
        self.spec = spec
        self.name = spec.name
        self.base = base
        self.flash = flash
        if counters is None:
            counters = (
                Counter(f"{base}.verdict_drops"),
                Counter(f"{base}.downtime_drops"),
                Counter(f"{base}.degraded_forwarded"),
            )
        self.verdict_drops, self.downtime_drops, self.degraded_forwarded = counters
        self.reboots = 0
        self.failed_boots = 0
        self.degraded = False
        self.dark = Window()  # reprogram windows, announced ones included
        # Populated by the module during provisioning / boot:
        self.app: PPEApplication | None = None
        self.pipeline: PipelineSpec | None = None  # the one app was verified with
        self.build = None
        self.program = None
        self.flow_cache: FlowCache | None = None
        self.ppe: PacketProcessingEngine | ReferenceEngine | None = None
        self.done_edge: Callable | None = None
        self.done_line: Callable | None = None
        self.burst_done_edge: Callable | None = None
        self.burst_done_line: Callable | None = None

    def metric_values(self) -> dict[str, object]:
        return {
            "app": self.app.name,
            "share": self.spec.share,
            "reboots": self.reboots,
            "failed_boots": self.failed_boots,
            "degraded": self.degraded,
            "down": self.sim.now in self.dark,
            "boot_slot": self.flash.boot_slot,
        }


class FlexSFPModule:
    """A programmable SFP+ module in the simulation.

    One fabric with one or more functions loaded into it: ``slots`` holds
    at least one :class:`TenantSlot`, and ``ppe`` / ``app`` /
    ``flow_cache`` / ``program`` / ``build`` are read-only views of the
    first (they follow what a reboot swaps in).  A one-slot module has no
    crossbar; with several, it steers each frame to exactly one of them.

    Parameters
    ----------
    sim, name:
        Simulation context and a unique device name.
    deployment:
        A :class:`~repro.nfv.Deployment` — the ordered tenant slots this
        module hosts (one tenant for the classic single-function cable,
        several for multi-tenant NFV chaining with crossbar steering).
    shell:
        Architecture shell (defaults to the prototype One-Way-Filter).
    device:
        Target FPGA (defaults to the prototype's MPF200T).
    auth_key / deploy_key:
        HMAC keys for management-frame authentication and bitstream
        signature verification respectively.
    build:
        A pre-computed :class:`~repro.hls.compiler.BuildResult` for a
        one-tenant deployment, booted as given once the tenant's own
        application instance passes the strict verifier gate; when omitted
        the module synthesizes each tenant's application itself (raising
        if it does not fit or misses timing).
    settings:
        A pre-resolved :class:`~repro.config.Settings`; ``None`` resolves
        the environment here, once.
    engine:
        The engine tier name (``reference`` / ``compiled``) every slot
        runs; omitted it falls back to ``FLEXSFP_ENGINE``, then
        ``reference`` (:func:`~repro.engine.resolve_engine`).
        ``reference`` runs the per-frame oracle behind one deliver event
        per frame; ``compiled`` runs the fast engine behind a flow cache,
        lowers the verified pipeline IR into a fused per-flow executor
        program (:mod:`repro.hls.executor`) and has the data
        ports take batched delivery and bursts, so senders hand frames
        over a flush at a time and template bursts stay struct-of-arrays.
        The tier decides how a slot runs, never what it boots: both tiers
        boot the same image.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        deployment: Deployment,
        shell: ShellSpec = PROTOTYPE_SHELL,
        device: FPGADevice = MPF200T,
        auth_key: bytes = DEFAULT_AUTH_KEY,
        deploy_key: bytes | None = None,
        build=None,
        flash_slots: int = 4,
        device_id: int = 0,
        mgmt_mac: str | int = "02:f5:f9:00:00:01",
        watchdog_timeout_s: float = WATCHDOG_TIMEOUT_S,
        settings: Settings | None = None,
        engine: str | None = None,
    ) -> None:
        if not isinstance(deployment, Deployment):
            raise ConfigError(
                "FlexSFPModule needs a Deployment "
                "(wrap a single application in Deployment.solo(app))"
            )
        if deployment.shell is not None:
            shell = deployment.shell
        if deployment.device is not None:
            device = deployment.device

        self.sim = sim
        self.name = name
        self.deployment = deployment
        self.shell = shell
        self.device = device
        self.device_id = device_id
        self.mgmt_mac = mgmt_mac
        self._mgmt_mac_int = mac_to_int(mgmt_mac)
        self.auth_key = auth_key
        self.deploy_key = deploy_key if deploy_key is not None else auth_key

        # Which directions traverse the PPE is fixed by the shell: decided
        # here, once, not asked of the shell per frame.
        self._ppe_directions = frozenset(
            direction for direction in Direction if shell.processes(direction)
        )

        self.engine = resolve_engine(engine, settings)
        # Optional packet tracer (duck-typed repro.obs.trace.Tracer), set
        # via attach_tracer.  None costs one attribute load per frame.
        self._tracer = None

        self.dark = Window()  # the whole fabric's reprogram windows
        # Every slot failed both boot images: the module is a dumb cable.
        self.degraded = False
        self.reboots = 0
        self.watchdog_timeout_s = watchdog_timeout_s
        self.watchdog_reboots = 0
        self.verdict_drops = Counter(f"{name}.verdict_drops")
        self.downtime_drops = Counter(f"{name}.downtime_drops")
        self.degraded_forwarded = Counter(f"{name}.degraded_forwarded")
        self.punted_to_cpu: list[Packet] = []

        self.slots: list[TenantSlot] = []
        self.crossbar: Crossbar | None = None
        tenants = deployment.tenants
        if len(tenants) == 1:
            # The naming decision: a solo slot is the module under its own
            # name — the module's counters, the module's flash, and no
            # crossbar in front of it.
            self.flash = SPIFlash(slots=flash_slots)
            counters = (self.verdict_drops, self.downtime_drops, self.degraded_forwarded)
            self._provision_slot(
                TenantSlot(sim, 0, tenants[0], name, self.flash, counters), build
            )
        else:
            if build is not None:
                raise ConfigError(
                    "a pre-computed build applies to single-tenant modules only"
                )
            from ..analysis.findings import errors as finding_errors

            blocking = finding_errors(check_deployment(deployment, shell, device))
            if blocking:
                raise ConfigError(
                    "infeasible deployment: "
                    + "; ".join(f.message for f in blocking)
                )
            self.crossbar = Crossbar(name, tenants)
            for index, spec in enumerate(tenants):
                base = f"{name}.tenant.{spec.name}"
                self._provision_slot(
                    TenantSlot(sim, index, spec, base, SPIFlash(slots=2))
                )
            # The module-level flash keeps the first tenant's image as the
            # golden slot so control-plane OTA and boot metrics stay
            # meaningful; per-tenant images live in the slot flashes.
            self.flash = SPIFlash(slots=flash_slots)
            self.flash.store_bitstream(0, self.build.bitstream, allow_golden=True)
            self.flash.select_boot(0)

        self.edge_port = self._data_port("edge")
        self.line_port = self._data_port("line")
        self.mgmt_port: Port | None = None
        if shell.kind is ShellKind.ACTIVE_CORE:
            self.mgmt_port = Port(sim, f"{name}.mgmt", rate_bps=1e9)
            self.mgmt_port.attach(self._on_mgmt_rx)

        self.arbiter = Arbiter(name)
        self.control_plane = ControlPlane(self, auth_key)
        self.services = ServiceRegistry()

    # ------------------------------------------------------------------
    # Views of the first slot, and module health as the sum of its slots
    # ------------------------------------------------------------------
    @property
    def ppe(self) -> PacketProcessingEngine | ReferenceEngine:
        return self.slots[0].ppe

    @property
    def app(self) -> PPEApplication:
        return self.slots[0].app

    @property
    def flow_cache(self) -> FlowCache | None:
        return self.slots[0].flow_cache

    @property
    def program(self):
        return self.slots[0].program

    @property
    def build(self):
        return self.slots[0].build

    @property
    def failed_boots(self) -> int:
        return sum(slot.failed_boots for slot in self.slots)

    # ------------------------------------------------------------------
    # Slot provisioning
    # ------------------------------------------------------------------
    def _synthesize(self, app: PPEApplication):
        """The image ``app`` boots, the same bitstream on both tiers.

        The one place an application is synthesized.
        """
        from ..hls.compiler import compile_app

        return compile_app(app, self.shell, self.device)

    def _gate(self, app: PPEApplication) -> PipelineSpec:
        """Check an ``app`` no build verified: ``compile_app``'s strict gate."""
        from ..hls.compiler import _gate

        pipeline = app.pipeline_spec()
        _gate(app, pipeline, self.shell, self.device)
        return pipeline

    def _start(
        self, slot: TenantSlot, app: PPEApplication, timing, pipeline: PipelineSpec
    ) -> None:
        """The one place an engine starts: ``app`` in ``slot``, from the
        ``pipeline`` it was verified with; inherits the tracer.

        A new app brings its pipeline and, on ``compiled``, its fused
        program (the effect proof alone); the running one keeps both.
        """
        if app is not slot.app:
            if slot.app is not None:
                # Its tables must not keep the swapped-out engine (and
                # that engine's cut hook) alive.
                slot.app.tables.on_before_mutate = None
            slot.app = app
            slot.pipeline = pipeline
            if self.engine == ENGINE_COMPILED:
                # Loaded by the tier that runs it: a reference module
                # never imports the executor compiler.
                from ..hls.executor import _prove

                slot.program = _prove(app, pipeline)
        depth = pipeline.pipeline_depth
        if self.engine == ENGINE_COMPILED:
            # Recipes replay against the application instance, so every
            # boot starts from an empty cache.
            slot.flow_cache.invalidate()
            slot.ppe = PacketProcessingEngine(
                self.sim, app, timing, depth, device_id=self.device_id,
                flow_cache=slot.flow_cache, program=slot.program,
            )
        else:
            slot.ppe = ReferenceEngine(self.sim, app, timing, depth, device_id=self.device_id)
        slot.ppe.tracer = self._tracer

    def _provision_slot(self, slot: TenantSlot, build=None) -> None:
        """Synthesize one slot's partition and add it: build, flash, engine.

        A caller's ``build`` was made from another instance, so the slot's
        own goes through the strict gate (raising :class:`CompileError`).
        """
        app = slot.spec.build_app()
        if self.engine == ENGINE_COMPILED:
            slot.flow_cache = FlowCache(name=f"{slot.base}.flow_cache")
        if build is None:
            build = self._synthesize(app)
            pipeline = build.spec
        else:
            pipeline = self._gate(app)
        slot.build = build
        slot.flash.store_bitstream(0, build.bitstream, allow_golden=True)
        slot.flash.select_boot(0)
        self._start(slot, app, build.report.timing, pipeline)
        slot.done_edge, slot.burst_done_edge = self._bind_done(
            slot, Direction.EDGE_TO_LINE
        )
        slot.done_line, slot.burst_done_line = self._bind_done(
            slot, Direction.LINE_TO_EDGE
        )
        self.slots.append(slot)

    def _bind_done(self, slot: TenantSlot, direction: Direction):
        """The slot's ``(per-frame, fused-slice)`` completion callbacks.

        Bound once per slot and direction, so the ingress path allocates
        nothing per frame, and a completion is one call: ``done`` is the
        whole per-frame verdict routing, not a hop to a shared method.
        """
        drops = slot.verdict_drops
        to_line = direction is Direction.EDGE_TO_LINE

        def done(
            packet: Packet,
            verdict: Verdict,
            emitted: list[tuple[Packet, Direction]],
            size: int,
            deliver_s: float,
        ) -> None:
            # Batched PPE execution runs this callback at the batch tail,
            # the oracle as the frame's own event; either way
            # ``deliver_s`` is the frame's virtual deliver time, and
            # egressing at that absolute time (plus the transceiver
            # crossing, added in the same float order on both tiers) keeps
            # downstream serialization timestamps bit-identical.
            tracer = self._tracer
            if tracer is not None and tracer.is_traced(packet):
                egress_ns = int(deliver_s * 1e9)
                detail: dict[str, object] = {"verdict": verdict.value}
                if verdict is Verdict.PASS:
                    detail["port"] = self._egress_port(direction).name
                elif verdict is Verdict.REFLECT:
                    detail["port"] = self._egress_port(direction.reverse).name
                tracer.record(
                    packet,
                    "egress",
                    self.name,
                    egress_ns,
                    egress_ns,
                    direction,
                    **detail,
                )
            if verdict is Verdict.PASS:
                # The egress port, inlined for the dominant verdict.
                port = self.line_port if to_line else self.edge_port
                port.send_at(packet, deliver_s + TRANSCEIVER_LATENCY_S, size)
            elif verdict is Verdict.REFLECT:
                self._egress_port(direction.reverse).send_at(
                    packet, deliver_s + TRANSCEIVER_LATENCY_S, size
                )
            elif verdict is Verdict.TO_CPU:
                self.punted_to_cpu.append(packet)
                # The embedded CPU's service chain may answer (§4.1's
                # "self-contained microservice node"); replies leave
                # through the interface the packet arrived on.
                self.sim.schedule_at(
                    max(deliver_s + CONTROL_PLANE_LATENCY_S, self.sim.now),
                    self._run_services,
                    packet,
                    direction,
                )
            else:  # DROP
                drops.packets += 1
                drops.bytes += size
            for extra, extra_direction in emitted:
                self._egress_port(extra_direction).send_at(
                    extra, deliver_s + TRANSCEIVER_LATENCY_S
                )

        def burst_done(packet: Packet, verdict: Verdict, size: int, deliver_s) -> None:
            self._ppe_burst_done(packet, verdict, size, deliver_s, direction, drops)

        return done, burst_done

    def tenant_slot(self, name: str) -> TenantSlot:
        """The runtime slot for tenant *name*."""
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise ConfigError(
            f"no tenant {name!r} on {self.name} "
            f"(tenants: {[slot.name for slot in self.slots]})"
        )

    # ------------------------------------------------------------------
    # Ingress handling
    # ------------------------------------------------------------------
    def _data_port(self, side: str) -> Port:
        """One data port, :meth:`_ingress` its receive handler.

        This is the one place the engine tier reaches the fabric: the
        oracle takes one deliver event per frame, the fast engine batched
        delivery plus template bursts (:meth:`_ingress_burst`).
        """
        port = Port(self.sim, f"{self.name}.{side}", rate_bps=self.shell.line_rate_bps)
        if self.engine != ENGINE_COMPILED:
            port.attach(self._ingress)
        else:
            # One PPE group-event commit per delivery flush instead of a
            # cancel/re-arm per submitted frame.  Routed through module
            # methods (not bound PPE methods) so a reboot-swapped engine
            # keeps receiving the brackets.
            port.rx_flush_begin = self._rx_flush_begin
            port.rx_flush_end = self._rx_flush_end
            port.attach_batch(self._ingress)
            port.attach_burst(self._ingress_burst)
        return port

    def _rx_flush_begin(self) -> None:
        for slot in self.slots:
            slot.ppe.flush_begin()

    def _rx_flush_end(self) -> None:
        for slot in self.slots:
            slot.ppe.flush_end()

    def _on_mgmt_rx(self, port: Port, packet: Packet, size: int, when: float) -> None:
        # The out-of-band management port carries only control traffic
        # addressed to (or broadcast at) this module.
        if (
            self.arbiter.classify(packet, size) == "cpu"
            and self._mgmt_addressing(packet) != "other"
        ):
            self._to_control_plane(packet, port, when)
        else:
            self.verdict_drops.count(size)

    def _mgmt_addressing(self, packet: Packet) -> str:
        """How a management frame relates to this module.

        ``"us"`` — unicast to our management MAC; ``"broadcast"`` —
        discovery traffic (consume *and* forward); ``"other"`` — another
        module's management traffic (pure data from our point of view).
        """
        eth = packet.eth
        if eth is None:
            return "other"
        if eth.dst == self._mgmt_mac_int:
            return "us"
        if eth.dst == BROADCAST_MAC:
            return "broadcast"
        return "other"

    def _ingress(self, reply_port: Port, packet: Packet, size: int, when: float) -> None:
        """The data ports' receive handler: every frame of every tier crosses it.

        ``when`` is the frame's exact wire arrival, which a coalesced
        flush hands over early in event time; everything below uses that
        virtual time, never the clock, so dark windows, timestamps and
        occupancy checks match the event-per-frame run.
        """
        direction = (
            Direction.EDGE_TO_LINE
            if reply_port is self.edge_port
            else Direction.LINE_TO_EDGE
        )
        if self.dark.start <= when < self.dark.until:
            self.downtime_drops.count(size)
            return
        classified = self.arbiter.classify(packet, size)
        tracer = self._tracer
        traced = tracer is not None and tracer.admit(packet)
        if traced:
            arrival_ns = int(when * 1e9)
            tracer.record(
                packet,
                "mac.rx",
                self.name,
                arrival_ns,
                arrival_ns,
                direction,
                port=reply_port.name,
                size=size,
            )
            tracer.record(
                packet,
                "arbiter",
                self.name,
                arrival_ns,
                arrival_ns,
                direction,
                classified=classified,
            )
        if classified == "cpu":
            addressing = self._mgmt_addressing(packet)
            if addressing == "us":
                self._to_control_plane(packet, reply_port, when)
                return
            if addressing == "broadcast":
                # Answer discovery and let the frame continue downstream.
                self._to_control_plane(packet.copy(), reply_port, when)
            # Management traffic for other modules rides the data path.
        if direction not in self._ppe_directions:
            # The unprocessed direction bypasses the PPE partitions (and
            # therefore the crossbar) entirely: merge + retime only — or,
            # with no live partition left, the bare retimer of a dumb cable.
            if self.degraded:
                self.degraded_forwarded.count(size)
                delay = TRANSCEIVER_LATENCY_S
            else:
                delay = TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S
            self._egress_port(direction).send_at(packet, when + delay, size)
            return
        crossbar = self.crossbar
        if crossbar is None:
            # A solo slot only boots with the whole module: ``dark`` above.
            slot = self.slots[0]
        else:
            slot = self.slots[crossbar.steer(packet, size)]
            if traced:
                tracer.record(
                    packet,
                    "crossbar",
                    self.name,
                    arrival_ns,
                    arrival_ns,
                    direction,
                    tenant=slot.name,
                )
            # Slot-local state affects only the frames steered to this slot
            # — the other slots keep forwarding, which is the whole point
            # of per-slot images.
            if slot.dark.start <= when < slot.dark.until:
                slot.downtime_drops.count(size)
                return
        if slot.degraded:
            # Degraded pass-through: no PPE, the slot's frames forward at
            # bare transceiver latency — a dumb cable for this function.
            slot.degraded_forwarded.count(size)
            self._egress_port(direction).send_at(
                packet, when + TRANSCEIVER_LATENCY_S, size
            )
            return
        # An overloaded engine counts the frame as its own drop.
        slot.ppe.submit(
            packet,
            direction,
            slot.done_edge if direction is Direction.EDGE_TO_LINE else slot.done_line,
            when,
            size,
        )

    def _ingress_burst(self, reply_port: Port, template: Packet, size: int, whens) -> None:
        """The compiled tier's burst handler: one template + delivery-time vector.

        The one place the module decides between the fused burst lane and
        expanding to per-frame copies through :meth:`_ingress`.  Anything
        with per-frame side effects deopts: a tracer, degraded forwarding,
        management frames, crossbar steering (more than one slot), a burst
        across an edge of the dark window.  Per-frame counters, timestamps
        and drop decisions of the fused lane equal that expansion's.
        """
        dark = self.dark
        first, last = whens[0], whens[-1]
        if dark.start <= first and last < dark.until:
            count = len(whens)
            self.downtime_drops.packets += count
            self.downtime_drops.bytes += count * size
            return
        slot = self.slots[0]
        if (
            self._tracer is not None
            or len(self.slots) > 1
            or slot.degraded
            or is_mgmt_frame(template)
            or (first < dark.until and last >= dark.start)
        ):
            for when in whens.tolist():
                self._ingress(reply_port, template.copy(), size, when)
            return
        direction = (
            Direction.EDGE_TO_LINE
            if reply_port is self.edge_port
            else Direction.LINE_TO_EDGE
        )
        self.arbiter.classify_bulk(template, size, len(whens))
        if direction not in self._ppe_directions:
            # Unprocessed direction: vectorized pass-through at retimer
            # latency (same scalar constant added per element).
            self._egress_port(direction).send_burst(
                template,
                size,
                whens + (TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S),
            )
        elif direction is Direction.EDGE_TO_LINE:
            slot.ppe.submit_burst(
                template, size, direction, whens, slot.burst_done_edge, slot.done_edge
            )
        else:
            slot.ppe.submit_burst(
                template, size, direction, whens, slot.burst_done_line, slot.done_line
            )

    # ------------------------------------------------------------------
    # Egress / verdict routing
    # ------------------------------------------------------------------
    def _egress_port(self, direction: Direction) -> Port:
        return self.line_port if direction is Direction.EDGE_TO_LINE else self.edge_port

    def _ppe_burst_done(
        self,
        packet: Packet,
        verdict: Verdict,
        size: int,
        deliver_s,
        direction: Direction,
        drops: Counter,
    ) -> None:
        """Fused-slice completion: PASS egresses the whole slice as one burst.

        Fused slices only ever complete with PASS or DROP (anything else
        deopts inside the PPE), and the transceiver crossing is added with
        the same scalar constant as the per-frame path.
        """
        if verdict is Verdict.PASS:
            self._egress_port(direction).send_burst(
                packet, size, deliver_s + TRANSCEIVER_LATENCY_S
            )
        else:  # DROP
            count = len(deliver_s)
            drops.packets += count
            drops.bytes += count * size

    def _run_services(self, packet: Packet, direction: Direction) -> None:
        reply = self.services.dispatch(packet, direction)
        if reply is not None:
            self.arbiter.merge_from_cpu(reply)
            self._egress_port(direction.reverse).send(reply)

    # ------------------------------------------------------------------
    # Control plane plumbing
    # ------------------------------------------------------------------
    def _to_control_plane(self, packet: Packet, reply_port: Port, when: float) -> None:
        reply = self.control_plane.handle_frame(packet, when)
        if reply is None:
            return
        eth = packet.eth
        requester = eth.src if eth is not None else 0
        response = mgmt_frame(reply, self.auth_key, self.mgmt_mac, requester)
        self.arbiter.merge_from_cpu(response)
        self.sim.schedule_at(
            max(when + CONTROL_PLANE_LATENCY_S, self.sim.now),
            reply_port.send,
            response,
        )

    # ------------------------------------------------------------------
    # Reprogramming / reboot
    # ------------------------------------------------------------------
    def load_via_jtag(self, bitstream, slot: int = 0) -> None:
        """Factory/JTAG load path: may program any slot, golden included."""
        self.flash.store_bitstream(slot, bitstream, allow_golden=True)

    def schedule_reboot(self, delay_s: float = 1e-3) -> None:
        """Arrange a reboot shortly after the current command completes."""
        self.sim.schedule(delay_s, self.reboot)

    def reboot(self) -> None:
        """Reload every slot's boot image and restart its engine.

        Each slot goes through the boot FSM of :meth:`_boot_slot`; the
        shared fabric (MACs, crossbar, softcore) goes dark for one
        ``RECONFIG_DOWNTIME_S`` window from now (extending a running one),
        during which ingress is dropped and counted.  Unannounced, it cannot
        reach a frame a coalesced flush handed over before this call: the
        one edge where the tiers may differ.  A module none of whose slots
        could boot enters *degraded pass-through* — both directions keep
        forwarding with the PPE bypassed — rather than going dark for good,
        and does not count a reboot; remote reprogramming can never brick
        the port.
        The management endpoint stays reachable either way (it lives in
        the always-on configuration controller, like a real FPGA's system
        controller), so the fleet can push a fresh image and reboot the
        module out of degradation.
        """
        booted = [self._boot_slot(slot) for slot in self.slots]
        self.control_plane.revive()  # the softcore restarts with the fabric
        if any(booted):
            self.reboots += 1
        self.dark.open(self.sim.now, RECONFIG_DOWNTIME_S)

    def _boot_slot(self, slot: TenantSlot, staged=None) -> bool:
        """Per-slot boot FSM: selected image, then the slot's golden.

        The FSM is a watchdog (§4): an image that does not load (CRC
        failure, truncated flash) or whose application cannot run here
        (:meth:`_image_app`) counts a failed boot and falls through to the
        golden image.  If golden fails too the slot degrades to
        pass-through while every other slot keeps processing; returns
        whether an image booted.  ``staged`` is the ``(app, pipeline)``
        the selected image was just synthesized from.
        """
        # Merges into the window an announced reconfiguration opened (at swap
        # time ``now == dark.start``); un-announced boots open it here.
        slot.dark.open(self.sim.now, RECONFIG_DOWNTIME_S)
        selected = slot.flash.boot_slot
        for index in (selected, 0) if selected else (0,):
            try:
                bitstream = slot.flash.load_bitstream(index)
                if staged is not None and index == selected:
                    app, pipeline = staged
                else:
                    app, pipeline = self._image_app(slot, bitstream)
            except (FlashError, BitstreamError, ConfigError, CompileError):
                slot.failed_boots += 1
                continue
            slot.degraded = False
            self._start(slot, app, bitstream.timing, pipeline)
            slot.reboots += 1
            self.degraded = False
            return True
        slot.degraded = True
        self.degraded = all(each.degraded for each in self.slots)
        return False

    def _image_app(self, slot: TenantSlot, bitstream: Bitstream):
        """The app ``bitstream`` runs in ``slot``, and its verified pipeline.

        The running instance, tables and all, when the image records its
        name and parameters (the image's went through JSON); else a new
        one built from the image, which the strict gate checks.  Raises
        :class:`ConfigError` for an app not in the registry and
        :class:`CompileError` for one the gate refuses.
        """
        name, params = bitstream.app_name, bitstream.metadata.get("app_params")
        running = slot.app
        if name == running.name and json.dumps(params, sort_keys=True) == json.dumps(
            running.config(), sort_keys=True
        ):
            return running, slot.pipeline
        # core does not import apps at module level; only a boot from
        # flash metadata needs the registry.
        from ..apps import create_app

        app = create_app(name, params or {})
        return app, self._gate(app)

    # ------------------------------------------------------------------
    # Partial reconfiguration (per-tenant slot images)
    # ------------------------------------------------------------------
    def reconfigure_tenant(
        self,
        tenant: str,
        app: PPEApplication | None = None,
        bitstream: Bitstream | None = None,
        at_s: float | None = None,
    ) -> None:
        """Swap one tenant's slot image while the other slots forward.

        The new image (a pre-signed *bitstream*, or one synthesized here
        from *app*, the same on either tier, which then runs *app*
        itself) is written to the slot's staging flash and booted through
        the per-slot boot FSM: staging first, the tenant's golden image
        on a staging image that fails to boot (counted in the slot's
        ``failed_boots``), degraded slot pass-through if both fail.  Only
        the reconfigured slot goes dark for the reprogram window — frames
        steered to it are counted in its ``downtime_drops`` while every
        other tenant's forwarding continues untouched, which is what makes
        this *partial* reconfiguration rather than the whole-module reboot.

        ``at_s`` *announces* the reconfiguration for a future virtual
        time: the slot's dark window is registered immediately (so
        batch-coalesced frames that arrive early in event time but carry
        in-window timestamps are classified identically to a per-frame
        run) and the image swap itself fires at ``at_s``.
        """
        if self.crossbar is None:
            raise ConfigError(
                "reconfigure_tenant() needs a multi-tenant deployment; "
                "single-tenant modules reprogram through reboot()"
            )
        if at_s is not None and at_s < self.sim.now:
            raise ConfigError(
                f"cannot announce a reconfiguration in the past "
                f"(at_s={at_s}, now={self.sim.now})"
            )
        slot = self.tenant_slot(tenant)
        staged = None
        if bitstream is None:
            if app is None:
                raise ConfigError(
                    "reconfigure_tenant() needs a new app or bitstream"
                )
            build = self._synthesize(app)
            bitstream, staged = build.bitstream, (app, build.spec)
        start = self.sim.now if at_s is None else at_s
        slot.dark.open(start, RECONFIG_DOWNTIME_S)
        if start > self.sim.now:
            self.sim.schedule_at(start, self._swap_tenant_slot, slot, bitstream, staged)
        else:
            self._swap_tenant_slot(slot, bitstream, staged)

    def _swap_tenant_slot(self, slot: TenantSlot, bitstream: Bitstream, staged) -> None:
        slot.flash.store_bitstream(1, bitstream)
        slot.flash.select_boot(1)
        self._boot_slot(slot, staged)

    # ------------------------------------------------------------------
    # Softcore watchdog (fault-injection surface)
    # ------------------------------------------------------------------
    def crash_softcore(self) -> None:
        """Wedge the control plane; the hardware watchdog reboots later."""
        self.control_plane.crash()
        self.sim.schedule(self.watchdog_timeout_s, self._watchdog_fire)

    def hang_softcore(self, duration_s: float) -> None:
        """Stall the control plane; it resumes on its own (no reboot)."""
        self.control_plane.hang(duration_s)

    def _watchdog_fire(self) -> None:
        if self.control_plane.crashed:
            self.watchdog_reboots += 1
            self.reboot()

    # ------------------------------------------------------------------
    # Introspection / observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Attach a packet tracer (duck-typed ``repro.obs.trace.Tracer``).

        The tracer admits packets at module ingress and receives stage
        spans (``mac.rx``, ``arbiter``, ``crossbar`` behind one, ``ppe``,
        ``app``, ``egress``) with virtual timestamps.  Passing None
        detaches.  The attachment survives reboots (a swapped-in engine
        inherits it).
        """
        self._tracer = tracer
        for slot in self.slots:
            slot.ppe.tracer = tracer

    def register_metrics(self, registry) -> None:
        """Publish every sub-component into a ``MetricsRegistry``.

        Prefixes hang off the module name, e.g. ``module0.ppe.<app>...``,
        ``module0.edge.tx.packets``, ``module0.reboots``.  The PPEs and
        control plane are registered through lambdas because reboots swap
        the live instances.
        """
        name = self.name
        registry.register(name, self)
        for slot in self.slots:
            registry.register(
                f"{slot.base}.ppe", (lambda s=slot: s.ppe.metric_values())
            )
        if self.crossbar is not None:
            # Per-tenant isolation: every tenant's counters live under its
            # own ``<module>.tenant.<name>.*`` subtree, with the steering
            # decision itself observable at ``<module>.crossbar.*``.
            registry.register(f"{name}.crossbar", self.crossbar)
            for slot in self.slots:
                base = slot.base
                registry.register(base, slot)
                registry.register(
                    f"{base}.steered", self.crossbar.steered[slot.index]
                )
                registry.register(f"{base}.verdict_drops", slot.verdict_drops)
                registry.register(f"{base}.downtime_drops", slot.downtime_drops)
                registry.register(
                    f"{base}.degraded_forwarded", slot.degraded_forwarded
                )
        registry.register(f"{name}.edge", self.edge_port)
        registry.register(f"{name}.line", self.line_port)
        if self.mgmt_port is not None:
            registry.register(f"{name}.mgmt", self.mgmt_port)
        registry.register(f"{name}.verdict_drops", self.verdict_drops)
        registry.register(f"{name}.downtime_drops", self.downtime_drops)
        registry.register(f"{name}.degraded_forwarded", self.degraded_forwarded)
        registry.register(
            f"{name}.control_plane",
            lambda: self.control_plane.metric_values(),
        )

    def metric_values(self) -> dict[str, object]:
        """Flat :class:`~repro.obs.registry.MetricSource` view (module level).

        ``app`` names the loaded functions: the app name, or
        ``tenant:app+...`` behind a crossbar.
        """
        values: dict[str, object] = {
            "app": self.app.name,
            "shell": self.shell.kind.value,
            "reboots": self.reboots,
            "failed_boots": self.failed_boots,
            "watchdog_reboots": self.watchdog_reboots,
            "degraded": self.degraded,
            "down": self.sim.now in self.dark,
            "boot_slot": self.flash.boot_slot,
            "control_fraction": self.arbiter.control_fraction(),
        }
        if self.crossbar is not None:
            values["app"] = "+".join(
                f"{slot.name}:{slot.app.name}" for slot in self.slots
            )
            values["tenants"] = len(self.slots)
        return values

    def histogram_states(self) -> dict[str, object]:
        """Live latency histograms keyed by full metric name.

        One per slot under its metric base: ``<module>.ppe.<app>.latency_ns``
        for a solo slot, ``<module>.tenant.<name>.ppe.<app>.latency_ns``
        for a tenant slot.
        """
        return {
            f"{slot.base}.ppe.{slot.app.name}.latency_ns": slot.ppe.latency_ns
            for slot in self.slots
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FlexSFPModule {self.name}: {self.app.name} on {self.device.name} "
            f"({self.shell.kind.value})>"
        )
