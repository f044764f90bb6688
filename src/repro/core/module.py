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

from typing import Callable

from .._util import mac_to_int
from ..config import Settings
from ..engine import ENGINE_COMPILED, resolve_engine, validate_engine
from ..errors import BitstreamError, ConfigError, FlashError
from ..fpga.bitstream import Bitstream
from ..fpga.flash import SPIFlash
from ..fpga.resources import FPGADevice, MPF200T
from ..nfv import Crossbar, Deployment, check_deployment
from ..packet import BROADCAST_MAC, Packet
from ..sim.engine import Simulator
from ..sim.link import Port
from ..sim.stats import Counter
from .arbiter import Arbiter
from .controlplane import ControlPlane
from .flowcache import DEFAULT_FLOW_CACHE_ENTRIES, FlowCache
from .ppe import (
    Direction,
    PacketProcessingEngine,
    PPEApplication,
    ReferenceEngine,
    Verdict,
)
from .services import ServiceRegistry
from .shells import PROTOTYPE_SHELL, ShellKind, ShellSpec

TRANSCEIVER_LATENCY_S = 40e-9
PASSTHROUGH_LATENCY_S = 25e-9
CONTROL_PLANE_LATENCY_S = 5e-6
RECONFIG_DOWNTIME_S = 120e-3
WATCHDOG_TIMEOUT_S = 50e-3

DEFAULT_AUTH_KEY = b"flexsfp-mgmt-key"


class TenantSlot:
    """One tenant's runtime partition on a multi-tenant module.

    Each slot owns its own application instance, synthesized build,
    packet-processing engine, flow cache, and a two-slot SPI flash
    (slot 0 = the tenant's golden image, slot 1 = staging for partial
    reconfiguration).  The module steers ingress frames to slots through
    the :class:`~repro.nfv.Crossbar`; a slot going dark (its partition
    being reprogrammed) or degraded affects only frames steered to it.
    """

    def __init__(self, index: int, spec, module_name: str) -> None:
        self.index = index
        self.spec = spec
        self.name = spec.name
        base = f"{module_name}.tenant.{spec.name}"
        self.verdict_drops = Counter(f"{base}.verdict_drops")
        self.downtime_drops = Counter(f"{base}.downtime_drops")
        self.degraded_forwarded = Counter(f"{base}.degraded_forwarded")
        self.reboots = 0
        self.failed_boots = 0
        self.down = False
        self.degraded = False
        # The dark window of the latest (possibly announced) partial
        # reconfiguration, in *virtual* time.  Ingress evaluates frames
        # against this interval using their true wire-arrival timestamps
        # rather than the event time a coalesced flush replays them at,
        # so the drop/forward boundary is bit-identical across engines.
        self.dark_from: float | None = None
        self.dark_until: float = 0.0
        # Populated by the module during provisioning / reconfiguration:
        self.app: PPEApplication | None = None
        self.engine: str | None = None
        self.build = None
        self.program = None
        self.flow_cache: FlowCache | None = None
        self.flash: SPIFlash | None = None
        self.ppe: PacketProcessingEngine | ReferenceEngine | None = None
        self.done_edge: Callable | None = None
        self.done_line: Callable | None = None

    def boot_complete(self) -> None:
        self.down = False

    def is_dark(self, when: float) -> bool:
        """Whether this slot's partition is being reprogrammed at ``when``."""
        return self.dark_from is not None and (
            self.dark_from <= when < self.dark_until
        )

    def metric_values(self) -> dict[str, object]:
        return {
            "app": self.app.name,
            "share": self.spec.share,
            "engine": self.engine,
            "reboots": self.reboots,
            "failed_boots": self.failed_boots,
            "degraded": self.degraded,
            "down": self.down,
            "boot_slot": self.flash.boot_slot,
        }


class FlexSFPModule:
    """A programmable SFP+ module in the simulation.

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
        A pre-computed :class:`~repro.hls.compiler.BuildResult`; when
        omitted the module synthesizes ``app`` itself (raising if it does
        not fit or misses timing).
    settings:
        A pre-resolved :class:`~repro.config.Settings`; ``None`` resolves
        the environment here, once.
    engine:
        The engine tier name (``reference`` / ``compiled``); omitted it
        falls back to a solo tenant's own ``engine``, then
        ``FLEXSFP_ENGINE``, then ``reference``
        (:func:`~repro.engine.resolve_engine`).  ``reference`` runs the
        per-frame oracle on un-coalesced ports; ``compiled`` runs the fast
        engine behind a flow cache, lowers the verified pipeline IR into a
        fused per-flow executor program
        (:func:`repro.hls.compile_executor`) and opts the data ports into
        coalesced delivery and the struct-of-arrays burst lane.
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
        flow_cache_entries: int = DEFAULT_FLOW_CACHE_ENTRIES,
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
        self._multi = deployment.multi_tenant
        self.shell = shell
        self.device = device
        self.device_id = device_id
        self.mgmt_mac = mgmt_mac
        self._mgmt_mac_int = mac_to_int(mgmt_mac)
        self.auth_key = auth_key
        self.deploy_key = deploy_key if deploy_key is not None else auth_key

        solo_spec = deployment.tenants[0]
        if engine is None and not self._multi:
            engine = solo_spec.engine
        self.engine = resolve_engine(engine, settings)
        self._flow_cache_entries = flow_cache_entries
        # Optional packet tracer (duck-typed repro.obs.trace.Tracer), set
        # via attach_tracer.  None costs one attribute load per frame.
        self._tracer = None

        self.slots: list[TenantSlot] = []
        self.crossbar: Crossbar | None = None
        if self._multi:
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
            for index, spec in enumerate(deployment.tenants):
                slot = TenantSlot(index, spec, name)
                self._provision_slot(slot, spec.build_app())
                self.slots.append(slot)
            self.crossbar = Crossbar(name, deployment.tenants)
            self.app = self.slots[0].app
            self.flow_cache = None
            self.program = None
            # The module-level flash keeps the first tenant's image as the
            # golden slot so control-plane OTA and boot metrics stay
            # meaningful; per-tenant images live in the slot flashes.
            self.build = self.slots[0].build
        else:
            self.app = solo_spec.build_app()
            self.flow_cache = self._new_flow_cache(self.engine, name)
            self.build, self.program = self._synthesize(
                self.app, self.engine, build
            )
        self.flash = SPIFlash(slots=flash_slots)
        self.flash.store_bitstream(0, self.build.bitstream, allow_golden=True)
        self.flash.select_boot(0)

        # The fast engine also opts the module's own ports into batched
        # delivery: the ingress path understands ``link_deliver_s`` stamps.
        coalesce = self.engine == ENGINE_COMPILED
        self.edge_port = Port(
            sim,
            f"{name}.edge",
            rate_bps=shell.line_rate_bps,
            coalesce=coalesce,
            batch_rx=coalesce,
        )
        self.line_port = Port(
            sim,
            f"{name}.line",
            rate_bps=shell.line_rate_bps,
            coalesce=coalesce,
            batch_rx=coalesce,
        )
        self.edge_port.attach(self._on_edge_rx)
        self.line_port.attach(self._on_line_rx)
        if coalesce:
            # One PPE group-event commit per delivery flush instead of a
            # cancel/re-arm per submitted frame.  Routed through module
            # methods (not bound PPE methods) so a reboot-swapped engine
            # keeps receiving the brackets.
            self.edge_port.rx_flush_begin = self._rx_flush_begin
            self.edge_port.rx_flush_end = self._rx_flush_end
            self.line_port.rx_flush_begin = self._rx_flush_begin
            self.line_port.rx_flush_end = self._rx_flush_end
            # Whole-flush ingress: one call per delivery batch.
            self.edge_port.attach_batch(self._on_edge_rx_batch)
            self.line_port.attach_batch(self._on_line_rx_batch)
        if self.program is not None:
            # Compiled tier: whole bursts arrive as one template + a
            # struct-of-arrays vector of delivery times.
            self.edge_port.attach_burst(self._on_edge_rx_burst)
            self.line_port.attach_burst(self._on_line_rx_burst)
        self.mgmt_port: Port | None = None
        if shell.kind is ShellKind.ACTIVE_CORE:
            self.mgmt_port = Port(sim, f"{name}.mgmt", rate_bps=1e9)
            self.mgmt_port.attach(self._on_mgmt_rx)

        self.arbiter = Arbiter(name)
        self.control_plane = ControlPlane(self, auth_key)
        self.services = ServiceRegistry()
        # Multi-tenant modules run one engine per slot; the module-level
        # engine handle stays None and every PPE touch branches on _multi.
        self.ppe = (
            None
            if self._multi
            else self._make_engine(
                self.app,
                self.build.report.timing,
                self.engine,
                self.flow_cache,
                self.program,
            )
        )

        self._down = False
        self.degraded = False
        self.reboots = 0
        self.failed_boots = 0
        self.watchdog_timeout_s = watchdog_timeout_s
        self.watchdog_reboots = 0
        self.verdict_drops = Counter(f"{name}.verdict_drops")
        self.downtime_drops = Counter(f"{name}.downtime_drops")
        self.degraded_forwarded = Counter(f"{name}.degraded_forwarded")
        self.punted_to_cpu: list[Packet] = []

    # ------------------------------------------------------------------
    # Tenant slot provisioning (multi-tenant deployments)
    # ------------------------------------------------------------------
    def _new_flow_cache(self, engine: str, owner: str) -> FlowCache | None:
        if engine != ENGINE_COMPILED:
            return None
        return FlowCache(self._flow_cache_entries, name=f"{owner}.flow_cache")

    def _synthesize(self, app: PPEApplication, engine: str, build=None):
        """``(build, program)`` for ``app`` at tier ``engine``.

        The one place an application is synthesized.  A given ``build`` is
        kept as the image (a pre-computed one, or the running one across a
        reboot, when only the compiled tier's recipes need re-fusing
        against the new application instance).
        """
        if engine == ENGINE_COMPILED:
            from ..hls.executor import compile_executor  # deferred: cycle

            executor = compile_executor(
                app,
                self.shell,
                device=self.device,
                flow_cache_entries=self._flow_cache_entries,
            )
            return (executor.build if build is None else build), executor.program
        if build is None:
            from ..hls.compiler import compile_app  # deferred: cycle

            build = compile_app(app, self.shell, self.device)
        return build, None

    def _make_engine(
        self,
        app: PPEApplication,
        timing,
        engine: str,
        flow_cache: FlowCache | None,
        program,
    ) -> PacketProcessingEngine | ReferenceEngine:
        """The engine class tier ``engine`` runs; inherits the tracer."""
        if engine == ENGINE_COMPILED:
            ppe = PacketProcessingEngine(
                self.sim,
                app,
                timing,
                device_id=self.device_id,
                flow_cache=flow_cache,
                program=program,
            )
        else:
            ppe = ReferenceEngine(self.sim, app, timing, device_id=self.device_id)
        ppe.tracer = self._tracer
        return ppe

    def _provision_slot(self, slot: TenantSlot, app: PPEApplication) -> None:
        """Synthesize one tenant's partition: build, flash, engine."""
        spec = slot.spec
        slot.app = app
        slot.engine = (
            self.engine if spec.engine is None else validate_engine(spec.engine)
        )
        slot.flow_cache = self._new_flow_cache(
            slot.engine, f"{self.name}.tenant.{spec.name}"
        )
        slot.build, slot.program = self._synthesize(app, slot.engine)
        # Two per-tenant images: slot 0 is the tenant's golden fallback,
        # slot 1 the staging area partial reconfiguration writes into.
        slot.flash = SPIFlash(slots=2)
        slot.flash.store_bitstream(0, slot.build.bitstream, allow_golden=True)
        slot.flash.select_boot(0)
        slot.ppe = self._make_engine(
            app, slot.build.report.timing, slot.engine, slot.flow_cache, slot.program
        )
        slot.done_edge = self._make_slot_done(slot, Direction.EDGE_TO_LINE)
        slot.done_line = self._make_slot_done(slot, Direction.LINE_TO_EDGE)

    def _make_slot_done(self, slot: TenantSlot, direction: Direction) -> Callable:
        def done(
            packet: Packet,
            verdict: Verdict,
            emitted: list[tuple[Packet, Direction]],
        ) -> None:
            self._ppe_done(packet, verdict, emitted, direction, slot.verdict_drops)

        return done

    def tenant_slot(self, name: str) -> TenantSlot:
        """The runtime slot for tenant *name* (multi-tenant modules)."""
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
    def _on_edge_rx(self, port: Port, packet: Packet) -> None:
        self._ingress(packet, Direction.EDGE_TO_LINE, reply_port=self.edge_port)

    def _on_line_rx(self, port: Port, packet: Packet) -> None:
        self._ingress(packet, Direction.LINE_TO_EDGE, reply_port=self.line_port)

    def _rx_flush_begin(self) -> None:
        if self._multi:
            for slot in self.slots:
                slot.ppe.flush_begin()
        else:
            self.ppe.flush_begin()

    def _rx_flush_end(self) -> None:
        if self._multi:
            for slot in self.slots:
                slot.ppe.flush_end()
        else:
            self.ppe.flush_end()

    def _on_edge_rx_batch(
        self, port: Port, items: list[tuple[Packet, int, float]]
    ) -> None:
        self._ingress_batch(items, Direction.EDGE_TO_LINE, self.edge_port)

    def _on_line_rx_batch(
        self, port: Port, items: list[tuple[Packet, int, float]]
    ) -> None:
        self._ingress_batch(items, Direction.LINE_TO_EDGE, self.line_port)

    def _ingress_batch(
        self,
        items: list[tuple[Packet, int, float]],
        direction: Direction,
        reply_port: Port,
    ) -> None:
        """Whole-flush ingress: :meth:`_ingress` fused over one delivery batch.

        Per-frame behaviour (classification order, timestamps, drop
        accounting) is identical to the per-frame path with ``at_s`` set
        to each frame's stamped delivery time.  Module state transitions
        (reboot, degradation, PPE swap) are all event-scheduled, so the
        hot-path lookups are loop-invariant within one flush.
        """
        if self._down:
            drops = self.downtime_drops
            for _packet, size, _when in items:
                drops.count(size)
            return
        if self._multi:
            # Crossbar steering is per-frame state (slot down/degraded can
            # flip mid-flush only via scheduled events, but tenants differ
            # frame to frame): replay through the per-frame path with each
            # frame's stamped delivery time.
            for packet, _size, when in items:
                packet.meta["link_deliver_s"] = when
                self._ingress(packet, direction, reply_port)
            return
        classify = self.arbiter.classify
        degraded = self.degraded
        processes = self.shell.processes(direction)
        submit = self.ppe.submit
        done = (
            self._done_edge_to_line
            if direction is Direction.EDGE_TO_LINE
            else self._done_line_to_edge
        )
        tracer = self._tracer
        for packet, size, when in items:
            if tracer is not None and tracer.admit(packet):
                when_ns = int(when * 1e9)
                tracer.record(
                    packet,
                    "mac.rx",
                    self.name,
                    when_ns,
                    when_ns,
                    direction,
                    port=reply_port.name,
                    size=size,
                )
                classified = classify(packet, size)
                tracer.record(
                    packet,
                    "arbiter",
                    self.name,
                    when_ns,
                    when_ns,
                    direction,
                    classified=classified,
                )
            else:
                classified = classify(packet, size)
            if classified == "cpu":
                addressing = self._mgmt_addressing(packet)
                if addressing == "us":
                    self._to_control_plane(packet, reply_port, when)
                    continue
                if addressing == "broadcast":
                    self._to_control_plane(packet.copy(), reply_port, when)
            packet.meta["flexsfp_ingress_ns"] = int(when * 1e9)
            if degraded:
                self.degraded_forwarded.count(size)
                self._egress_port(direction).send_at(
                    packet, when + TRANSCEIVER_LATENCY_S, size
                )
            elif processes:
                submit(packet, direction, done, when, size)
            else:
                self._egress_port(direction).send_at(
                    packet,
                    when + (TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S),
                    size,
                )

    def _on_edge_rx_burst(
        self, port: Port, template: Packet, size: int, whens
    ) -> None:
        self._ingress_burst(
            template, size, whens, Direction.EDGE_TO_LINE, self.edge_port
        )

    def _on_line_rx_burst(
        self, port: Port, template: Packet, size: int, whens
    ) -> None:
        self._ingress_burst(
            template, size, whens, Direction.LINE_TO_EDGE, self.line_port
        )

    def _ingress_burst(
        self,
        template: Packet,
        size: int,
        whens,
        direction: Direction,
        reply_port: Port,
    ) -> None:
        """Compiled-tier ingress: one template + delivery-time vector.

        Per-frame counters, timestamps and drop decisions are identical to
        :meth:`_ingress_batch` over the expanded frames.  Paths with
        per-frame side effects (tracing, management addressing, degraded
        forwarding) deopt to exactly that expansion.
        """
        count = len(whens)
        if self._down:
            drops = self.downtime_drops
            drops.packets += count
            drops.bytes += count * size
            return
        if self._tracer is not None or self.degraded or self._multi:
            self._ingress_batch(
                [
                    (template.copy(), size, when)
                    for when in whens.tolist()
                ],
                direction,
                reply_port,
            )
            return
        classified = self.arbiter.classify_bulk(template, size, count)
        if classified != "data":
            # A burst of management frames: replay per frame (the bulk
            # classification already counted them — don't count twice).
            done = (
                self._done_edge_to_line
                if direction is Direction.EDGE_TO_LINE
                else self._done_line_to_edge
            )
            submit = self.ppe.submit
            for when in whens.tolist():
                packet = template.copy()
                addressing = self._mgmt_addressing(packet)
                if addressing == "us":
                    self._to_control_plane(packet, reply_port, when)
                    continue
                if addressing == "broadcast":
                    self._to_control_plane(packet.copy(), reply_port, when)
                packet.meta["flexsfp_ingress_ns"] = int(when * 1e9)
                if self.shell.processes(direction):
                    submit(packet, direction, done, when, size)
                else:
                    self._egress_port(direction).send_at(
                        packet,
                        when + (TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S),
                        size,
                    )
            return
        template.meta["flexsfp_ingress_ns"] = int(float(whens[0]) * 1e9)
        if not self.shell.processes(direction):
            # Unprocessed direction: vectorized pass-through at retimer
            # latency (same scalar constant added per element).
            self._egress_port(direction).send_burst(
                template,
                size,
                whens + (TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S),
            )
            return
        self.ppe.submit_burst(
            template,
            size,
            direction,
            whens,
            self._burst_done_edge_to_line
            if direction is Direction.EDGE_TO_LINE
            else self._burst_done_line_to_edge,
            self._done_edge_to_line
            if direction is Direction.EDGE_TO_LINE
            else self._done_line_to_edge,
        )

    def _on_mgmt_rx(self, port: Port, packet: Packet) -> None:
        # The out-of-band management port carries only control traffic
        # addressed to (or broadcast at) this module.
        if (
            self.arbiter.classify(packet) == "cpu"
            and self._mgmt_addressing(packet) != "other"
        ):
            self._to_control_plane(packet, port)
        else:
            self.verdict_drops.count(packet.wire_len)

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

    def _ingress(self, packet: Packet, direction: Direction, reply_port: Port) -> None:
        if self._down:
            self.downtime_drops.count(packet.wire_len)
            return
        # Batch-delivered ingress hands the frame over early, carrying its
        # exact wire arrival; everything below uses that virtual time so
        # timestamps and occupancy checks match the event-per-frame run.
        at_s = packet.meta.pop("link_deliver_s", None)
        size = packet.wire_len
        tracer = self._tracer
        traced = tracer is not None and tracer.admit(packet)
        if traced:
            arrival_ns = int((self.sim.now if at_s is None else at_s) * 1e9)
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
        classified = self.arbiter.classify(packet, size)
        if traced:
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
                self._to_control_plane(packet, reply_port, at_s)
                return
            if addressing == "broadcast":
                # Answer discovery and let the frame continue downstream.
                self._to_control_plane(packet.copy(), reply_port, at_s)
            # Management traffic for other modules rides the data path.
        packet.meta["flexsfp_ingress_ns"] = int(
            (self.sim.now if at_s is None else at_s) * 1e9
        )
        if self._multi:
            self._ingress_tenant(packet, direction, at_s, size, traced)
            return
        if self.degraded:
            # Degraded pass-through: no PPE, both directions forward at
            # bare transceiver latency — the module is a dumb cable now.
            self.degraded_forwarded.count(size)
            port = self._egress_port(direction)
            if at_s is None:
                port.send_delayed(packet, TRANSCEIVER_LATENCY_S)
            else:
                port.send_at(packet, at_s + TRANSCEIVER_LATENCY_S, size)
            return
        if self.shell.processes(direction):
            accepted = self.ppe.submit(
                packet,
                direction,
                self._done_edge_to_line
                if direction is Direction.EDGE_TO_LINE
                else self._done_line_to_edge,
                at_s=at_s,
                size=size,
            )
            if not accepted:
                return  # counted by the PPE as an overload drop
        else:
            port = self._egress_port(direction)
            if at_s is None:
                port.send_delayed(
                    packet, TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S
                )
            else:
                port.send_at(
                    packet,
                    at_s + (TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S),
                )

    def _ingress_tenant(
        self,
        packet: Packet,
        direction: Direction,
        at_s: float | None,
        size: int,
        traced: bool,
    ) -> None:
        """Crossbar stage: steer one data-plane frame to its tenant slot.

        Slot-local state (dark during partial reconfiguration, degraded
        after a failed slot boot) affects only frames steered to that
        slot — the other tenants keep forwarding, which is the whole
        point of per-slot images.
        """
        if not self.shell.processes(direction):
            # The unprocessed direction bypasses the PPE partitions (and
            # therefore the crossbar) entirely, exactly like the
            # single-tenant shell datapath.
            port = self._egress_port(direction)
            if at_s is None:
                port.send_delayed(
                    packet, TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S
                )
            else:
                port.send_at(
                    packet,
                    at_s + (TRANSCEIVER_LATENCY_S + PASSTHROUGH_LATENCY_S),
                )
            return
        slot = self.slots[self.crossbar.steer(packet, size)]
        if traced:
            when_ns = packet.meta["flexsfp_ingress_ns"]
            self._tracer.record(
                packet,
                "crossbar",
                self.name,
                when_ns,
                when_ns,
                direction,
                tenant=slot.name,
            )
        when = self.sim.now if at_s is None else at_s
        if slot.is_dark(when):
            slot.downtime_drops.count(size)
            return
        if slot.degraded:
            slot.degraded_forwarded.count(size)
            port = self._egress_port(direction)
            if at_s is None:
                port.send_delayed(packet, TRANSCEIVER_LATENCY_S)
            else:
                port.send_at(packet, at_s + TRANSCEIVER_LATENCY_S, size)
            return
        slot.ppe.submit(
            packet,
            direction,
            slot.done_edge if direction is Direction.EDGE_TO_LINE else slot.done_line,
            at_s=at_s,
            size=size,
        )

    # ------------------------------------------------------------------
    # Egress / verdict routing
    # ------------------------------------------------------------------
    def _egress_port(self, direction: Direction) -> Port:
        return self.line_port if direction is Direction.EDGE_TO_LINE else self.edge_port

    def _ingress_port(self, direction: Direction) -> Port:
        return self.edge_port if direction is Direction.EDGE_TO_LINE else self.line_port

    def _forward(self, packet: Packet, direction: Direction) -> None:
        self._egress_port(direction).send(packet)

    # Pre-bound PPE completion callbacks (one per direction) so the hot
    # ingress path does not allocate a closure per frame.
    def _done_edge_to_line(
        self,
        packet: Packet,
        verdict: Verdict,
        emitted: list[tuple[Packet, Direction]],
    ) -> None:
        self._ppe_done(packet, verdict, emitted, Direction.EDGE_TO_LINE)

    def _done_line_to_edge(
        self,
        packet: Packet,
        verdict: Verdict,
        emitted: list[tuple[Packet, Direction]],
    ) -> None:
        self._ppe_done(packet, verdict, emitted, Direction.LINE_TO_EDGE)

    def _burst_done_edge_to_line(
        self, packet: Packet, verdict: Verdict, size: int, deliver_s
    ) -> None:
        self._ppe_burst_done(packet, verdict, size, deliver_s, Direction.EDGE_TO_LINE)

    def _burst_done_line_to_edge(
        self, packet: Packet, verdict: Verdict, size: int, deliver_s
    ) -> None:
        self._ppe_burst_done(packet, verdict, size, deliver_s, Direction.LINE_TO_EDGE)

    def _ppe_burst_done(
        self,
        packet: Packet,
        verdict: Verdict,
        size: int,
        deliver_s,
        direction: Direction,
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
            drops = self.verdict_drops
            drops.packets += count
            drops.bytes += count * size

    def _ppe_done(
        self,
        packet: Packet,
        verdict: Verdict,
        emitted: list[tuple[Packet, Direction]],
        direction: Direction,
        drops: Counter | None = None,
    ) -> None:
        # Batched PPE execution runs this callback at the batch tail but
        # records the frame's virtual deliver time; egressing at that
        # absolute time (plus the transceiver crossing, added in the same
        # float order as the event-per-frame path) keeps downstream
        # serialization timestamps bit-identical.
        deliver_s = packet.meta.pop("ppe_deliver_s", None)
        tracer = self._tracer
        if tracer is not None and tracer.is_traced(packet):
            egress_ns = int(
                (self.sim.now if deliver_s is None else deliver_s) * 1e9
            )
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
            # Inlined _egress/send_at for the dominant verdict: identical
            # arithmetic, two fewer calls per frame.
            port = (
                self.line_port
                if direction is Direction.EDGE_TO_LINE
                else self.edge_port
            )
            if deliver_s is None:
                port.send_delayed(packet, TRANSCEIVER_LATENCY_S)
            elif port.coalesce and port._peer is not None:
                port._reserve_tx(packet, deliver_s + TRANSCEIVER_LATENCY_S)
            else:
                port.send_at(packet, deliver_s + TRANSCEIVER_LATENCY_S)
        elif verdict is Verdict.REFLECT:
            self._egress(self._egress_port(direction.reverse), packet, deliver_s)
        elif verdict is Verdict.TO_CPU:
            self.punted_to_cpu.append(packet)
            # The embedded CPU's service chain may answer (§4.1's
            # "self-contained microservice node"); replies leave through
            # the interface the packet arrived on.
            at = (
                self.sim.now if deliver_s is None else deliver_s
            ) + CONTROL_PLANE_LATENCY_S
            self.sim.schedule_at(
                max(at, self.sim.now), self._run_services, packet, direction
            )
        else:  # DROP
            (self.verdict_drops if drops is None else drops).count(packet.wire_len)
        for extra, extra_direction in emitted:
            self._egress(self._egress_port(extra_direction), extra, deliver_s)

    def _egress(self, port: Port, packet: Packet, deliver_s: float | None) -> None:
        if deliver_s is None:
            port.send_delayed(packet, TRANSCEIVER_LATENCY_S)
        else:
            port.send_at(packet, deliver_s + TRANSCEIVER_LATENCY_S)

    def _run_services(self, packet: Packet, direction: Direction) -> None:
        reply = self.services.dispatch(packet, direction)
        if reply is not None:
            self.arbiter.merge_from_cpu(reply)
            self._ingress_port(direction).send(reply)

    # ------------------------------------------------------------------
    # Control plane plumbing
    # ------------------------------------------------------------------
    def _to_control_plane(
        self, packet: Packet, reply_port: Port, at_s: float | None = None
    ) -> None:
        reply = self.control_plane.handle_frame(packet)
        if reply is None:
            return
        eth = packet.eth
        requester = eth.src if eth is not None else 0
        from .mgmt import mgmt_frame  # deferred: tiny helper, avoids cycle

        response = mgmt_frame(reply, self.auth_key, self.mgmt_mac, requester)
        self.arbiter.merge_from_cpu(response)
        if at_s is None:
            self.sim.schedule(CONTROL_PLANE_LATENCY_S, reply_port.send, response)
        else:
            when = at_s + CONTROL_PLANE_LATENCY_S
            now = self.sim.now
            self.sim.schedule_at(
                when if when > now else now, reply_port.send, response
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

    def reboot(self, app_factory: Callable[[str, dict], PPEApplication] | None = None) -> None:
        """Reload the boot-slot bitstream and restart the PPE.

        The boot FSM is a watchdog (§4): it tries the selected slot, and
        on a corrupt or unreconstructible image (CRC failure, truncated
        flash, unknown application) counts a failed boot and falls back to
        the golden slot.  If golden fails too, the module enters *degraded
        pass-through* — both directions forward at transceiver latency
        with the PPE bypassed — rather than going dark; remote
        reprogramming can never brick the port.

        On a successful boot the module goes dark for
        ``RECONFIG_DOWNTIME_S`` (fabric reprogramming); ingress during
        that window is dropped and counted.  The new application instance
        is rebuilt from the bitstream's recorded parameters via the
        application registry (or a supplied factory).
        """
        if app_factory is None:
            from ..apps import create_app  # deferred: avoids import cycle

            app_factory = create_app
        if self._multi:
            # A whole-module reboot reloads every tenant partition from
            # its own boot image; the shared fabric (MACs, crossbar,
            # softcore) goes dark for one reprogram window.
            for slot in self.slots:
                self._boot_tenant_slot(slot, app_factory)
            self.control_plane.revive()
            self.reboots += 1
            self._down = True
            self.sim.schedule(RECONFIG_DOWNTIME_S, self._boot_complete)
            return
        booted = self._try_boot_slots(app_factory)
        if booted is None:
            self._enter_degraded()
            return
        bitstream, new_app = booted
        self.degraded = False
        self.control_plane.revive()  # the softcore restarts with the fabric
        self.app = new_app
        if self.flow_cache is not None:
            # Recipes replay against the application instance; a reboot may
            # swap it, so every cached decision is stale.
            self.flow_cache.invalidate()
        # The compiled tier re-fuses against the booted application —
        # recipes are compiled per app instance, like the flow cache.
        _, self.program = self._synthesize(new_app, self.engine, self.build)
        self.ppe = self._make_engine(
            new_app, bitstream.timing, self.engine, self.flow_cache, self.program
        )
        self.reboots += 1
        self._down = True
        self.sim.schedule(RECONFIG_DOWNTIME_S, self._boot_complete)

    def _try_boot_slots(
        self, app_factory: Callable[[str, dict], PPEApplication]
    ) -> tuple[Bitstream, PPEApplication] | None:
        """Boot-FSM core: selected slot first, then golden; None if both fail."""
        slots = [self.flash.boot_slot]
        if self.flash.boot_slot != 0:
            slots.append(0)
        for slot in slots:
            try:
                bitstream = self.flash.load_bitstream(slot)
            except (FlashError, BitstreamError):
                self.failed_boots += 1
                continue
            if bitstream.app_name == self.app.name:
                return bitstream, self.app  # same application: keep state
            try:
                params = bitstream.metadata.get("app_params", {})
                return bitstream, app_factory(bitstream.app_name, params)
            except ConfigError:
                # The image names an application this module cannot
                # reconstruct (e.g. a custom program not in the registry).
                self.failed_boots += 1
        return None

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
        from *app* at the slot's engine tier) is written to the slot's
        staging flash and booted through the per-slot boot FSM: staging
        first, the tenant's golden image on a corrupt or
        unreconstructible staging image (each failure counted in the
        slot's ``failed_boots``), degraded slot pass-through if both
        fail.  Only the reconfigured slot goes dark for the reprogram
        window — frames steered to it are counted in its
        ``downtime_drops`` while every other tenant's forwarding
        continues untouched, which is what makes this *partial*
        reconfiguration rather than the whole-module reboot.

        ``at_s`` *announces* the reconfiguration for a future virtual
        time: the slot's dark window is registered immediately (so
        batch-coalesced frames that arrive early in event time but carry
        in-window timestamps are classified identically to a per-frame
        run) and the image swap itself fires at ``at_s``.
        """
        if not self._multi:
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
        if bitstream is None:
            if app is None:
                raise ConfigError(
                    "reconfigure_tenant() needs a new app or bitstream"
                )
            bitstream = self._synthesize(app, slot.engine)[0].bitstream
        from ..apps import create_app  # deferred: avoids import cycle

        start = self.sim.now if at_s is None else at_s
        slot.dark_from = start
        slot.dark_until = start + RECONFIG_DOWNTIME_S
        if start > self.sim.now:
            self.sim.schedule_at(
                start, self._swap_tenant_slot, slot, bitstream, create_app
            )
        else:
            self._swap_tenant_slot(slot, bitstream, create_app)

    def _swap_tenant_slot(
        self,
        slot: TenantSlot,
        bitstream: Bitstream,
        app_factory: Callable[[str, dict], PPEApplication],
    ) -> None:
        slot.flash.store_bitstream(1, bitstream)
        slot.flash.select_boot(1)
        self._boot_tenant_slot(slot, app_factory)

    def _boot_tenant_slot(
        self,
        slot: TenantSlot,
        app_factory: Callable[[str, dict], PPEApplication],
    ) -> None:
        """Per-slot boot FSM: selected image, then the tenant's golden."""
        # An announced reconfiguration already registered this window (at
        # swap time ``now == dark_from``, so re-registering is idempotent);
        # un-announced paths (module reboot, direct swaps) register here.
        slot.dark_from = self.sim.now
        slot.dark_until = self.sim.now + RECONFIG_DOWNTIME_S
        booted: tuple[Bitstream, PPEApplication] | None = None
        candidates = [slot.flash.boot_slot]
        if slot.flash.boot_slot != 0:
            candidates.append(0)
        for index in candidates:
            try:
                bitstream = slot.flash.load_bitstream(index)
            except (FlashError, BitstreamError):
                slot.failed_boots += 1
                continue
            if bitstream.app_name == slot.app.name:
                booted = (bitstream, slot.app)  # same application: keep state
                break
            try:
                params = bitstream.metadata.get("app_params", {})
                booted = (bitstream, app_factory(bitstream.app_name, params))
                break
            except ConfigError:
                slot.failed_boots += 1
        if booted is None:
            # Both slot images unusable: this tenant degrades to
            # pass-through while every other slot keeps processing.
            slot.degraded = True
            slot.down = True
            self.sim.schedule(RECONFIG_DOWNTIME_S, slot.boot_complete)
            return
        bitstream, new_app = booted
        slot.degraded = False
        slot.app = new_app
        if slot.flow_cache is not None:
            slot.flow_cache.invalidate()
        _, slot.program = self._synthesize(new_app, slot.engine, slot.build)
        slot.ppe = self._make_engine(
            new_app, bitstream.timing, slot.engine, slot.flow_cache, slot.program
        )
        slot.reboots += 1
        slot.down = True
        self.sim.schedule(RECONFIG_DOWNTIME_S, slot.boot_complete)

    def _enter_degraded(self) -> None:
        """Both boot images are unusable: degrade to a dumb cable.

        The fabric spends the usual reprogram window cycling through the
        slots, then the hardwired retimer path takes over.  The management
        endpoint stays reachable (it lives in the always-on configuration
        controller, like a real FPGA's system controller), so the fleet
        can push a fresh image and reboot the module out of degradation.
        """
        self.degraded = True
        self.control_plane.revive()
        self._down = True
        self.sim.schedule(RECONFIG_DOWNTIME_S, self._boot_complete)

    def _boot_complete(self) -> None:
        self._down = False

    @property
    def is_down(self) -> bool:
        return self._down

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
        spans (``mac.rx``, ``arbiter``, ``ppe``, ``app``, ``egress``) with
        virtual timestamps.  Passing None detaches.  The attachment
        survives reboots (the swapped-in engine inherits it).
        """
        self._tracer = tracer
        if self._multi:
            for slot in self.slots:
                slot.ppe.tracer = tracer
        else:
            self.ppe.tracer = tracer

    def register_metrics(self, registry) -> None:
        """Publish every sub-component into a ``MetricsRegistry``.

        Prefixes hang off the module name, e.g. ``module0.ppe.<app>...``,
        ``module0.edge.tx.packets``, ``module0.reboots``.  The PPE and
        control plane are registered through lambdas because reboots swap
        the live instances.
        """
        name = self.name
        registry.register(name, self)
        if self._multi:
            # Per-tenant isolation: every tenant's counters live under its
            # own ``<module>.tenant.<name>.*`` subtree, with the steering
            # decision itself observable at ``<module>.crossbar.*``.
            registry.register(f"{name}.crossbar", self.crossbar)
            for slot in self.slots:
                base = f"{name}.tenant.{slot.name}"
                registry.register(base, slot)
                registry.register(
                    f"{base}.ppe", (lambda s=slot: s.ppe.metric_values())
                )
                registry.register(
                    f"{base}.steered", self.crossbar.steered[slot.index]
                )
                registry.register(f"{base}.verdict_drops", slot.verdict_drops)
                registry.register(f"{base}.downtime_drops", slot.downtime_drops)
                registry.register(
                    f"{base}.degraded_forwarded", slot.degraded_forwarded
                )
        else:
            registry.register(f"{name}.ppe", lambda: self.ppe.metric_values())
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
        """Flat :class:`~repro.obs.registry.MetricSource` view (module level)."""
        values: dict[str, object] = {
            "app": self.app.name,
            "shell": self.shell.kind.value,
            "reboots": self.reboots,
            "failed_boots": self.failed_boots,
            "watchdog_reboots": self.watchdog_reboots,
            "degraded": self.degraded,
            "down": self._down,
            "boot_slot": self.flash.boot_slot,
            "control_fraction": self.arbiter.control_fraction(),
        }
        if self._multi:
            values["app"] = "+".join(
                f"{slot.name}:{slot.app.name}" for slot in self.slots
            )
            values["tenants"] = len(self.slots)
        return values

    def histogram_states(self) -> dict[str, object]:
        """Live latency histograms keyed by full metric name.

        Single-tenant modules keep the historical
        ``<module>.ppe.<app>.latency_ns`` key; multi-tenant modules
        publish one histogram per tenant under its isolation subtree.
        """
        if self._multi:
            return {
                f"{self.name}.tenant.{slot.name}.ppe."
                f"{slot.app.name}.latency_ns": slot.ppe.latency_ns
                for slot in self.slots
            }
        return {f"{self.name}.ppe.{self.app.name}.latency_ns": self.ppe.latency_ns}

    def snapshot(self) -> dict[str, object]:
        """Structured counter snapshot (stable legacy dict layout)."""
        if self._multi:
            return {
                "app": "+".join(
                    f"{slot.name}:{slot.app.name}" for slot in self.slots
                ),
                "shell": self.shell.kind.value,
                "tenants": {
                    slot.name: {
                        "app": slot.app.name,
                        "ppe": slot.ppe.snapshot(),
                        "steered": self.crossbar.steered[slot.index].snapshot(),
                        "verdict_drops": slot.verdict_drops.snapshot(),
                        "downtime_drops": slot.downtime_drops.snapshot(),
                        "reboots": slot.reboots,
                        "failed_boots": slot.failed_boots,
                        "degraded": slot.degraded,
                        "boot_slot": slot.flash.boot_slot,
                    }
                    for slot in self.slots
                },
                "verdict_drops": self.verdict_drops.snapshot(),
                "downtime_drops": self.downtime_drops.snapshot(),
                "control_plane": self.control_plane.snapshot(),
                "control_fraction": self.arbiter.control_fraction(),
                "reboots": self.reboots,
                "failed_boots": self.failed_boots,
                "degraded": self.degraded,
                "degraded_forwarded": self.degraded_forwarded.snapshot(),
                "boot_slot": self.flash.boot_slot,
                "watchdog_reboots": self.watchdog_reboots,
            }
        return {
            "app": self.app.name,
            "shell": self.shell.kind.value,
            "ppe": self.ppe.snapshot(),
            "verdict_drops": self.verdict_drops.snapshot(),
            "downtime_drops": self.downtime_drops.snapshot(),
            "control_plane": self.control_plane.snapshot(),
            "control_fraction": self.arbiter.control_fraction(),
            "reboots": self.reboots,
            "failed_boots": self.failed_boots,
            "degraded": self.degraded,
            "degraded_forwarded": self.degraded_forwarded.snapshot(),
            "boot_slot": self.flash.boot_slot,
            "watchdog_reboots": self.watchdog_reboots,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FlexSFPModule {self.name}: {self.app.name} on {self.device.name} "
            f"({self.shell.kind.value})>"
        )
