"""The Packet Processing Engine: application interface and two runtimes.

The PPE is the programmable element in every FlexSFP shell (Figure 1).
Applications implement :class:`PPEApplication` — a functional ``process``
method (what the logic does to each packet) plus a ``pipeline_spec`` (what
the logic costs to synthesize).  An engine runs the application inside the
discrete-event simulation as a single server whose service time comes from
the synthesized :class:`TimingSpec`, so overload, queueing, and loss emerge
from the same arithmetic the paper uses for its line-rate claims.

Two engines execute that contract, one per tier (:mod:`repro.engine`):

* :class:`ReferenceEngine` (``reference``) — the oracle.  A bounded FIFO in
  front of one server, one event chain and one ``process`` call per frame.
  It knows nothing of flow caches, frame groups, or bursts; every result
  the fast engine produces is differential-tested against it.
* :class:`PacketProcessingEngine` (``compiled``) — the fast engine.  Frames
  reserve their service slot at submit time on a
  :class:`~repro.sim.engine.ServiceTimeline` (the float sequence of the
  per-frame schedule; the timeline's ``admit`` is the only admission
  arithmetic there is) and are processed in groups of up to
  :data:`BURST_FRAMES` per scheduled event, so per-frame start/finish
  timestamps — and therefore queueing, overload, and latency statistics —
  are identical to the oracle while heap and callback overhead amortizes.
  A ``run(until=)`` cut settles the engine (:meth:`PacketProcessingEngine._settle`),
  so its counters equal the oracle's at every cut, not only once drained.

The fast engine has one lane, the per-frame one, and one optimisation of
it.  Each piece is here because measured traffic takes it (counts: one
repeat of the named ``BENCHMARK.json`` workload):

- *per-frame* (:meth:`PacketProcessingEngine.submit`): all 14,881 frames
  of ``nfv-chain-mix`` and all 1,891 of ``chaos-smoke``.  Applications
  with a :meth:`PPEApplication.flow_key` replay a cached recipe, recorded
  from their own ``process`` on the flow's first frame, instead of
  re-running the program (1,890 of those 1,891); table writes invalidate
  entries via the registry generation counter.
- *fused bursts* (:meth:`PacketProcessingEngine.submit_burst`): a
  same-flow burst arrives as one template packet plus a vector of arrival
  times, is admitted through the same timeline kernel and — when
  :meth:`PacketProcessingEngine._burst_lane` finds a lane for it — each
  due slice collapses into one application with O(1) counter and
  histogram updates.  The ``recipe`` lane (one
  :meth:`~repro.core.flowcache.FlowRecipe.apply_burst` per slice) carries
  30 of 30 bursts of ``nat-linerate-fused``, each admitted by the
  timeline's keep-up regime: 29,762 frames, one recorded ``process``
  call.  The ``meter`` lane (:meth:`PPEApplication.burst_plan`, sequential) has no
  benchmark workload; the ratelimiter differentials in
  ``tests/test_compiled_differential.py`` are what keep it.
- *deopt*: anything the fused contract cannot express — a tracer, per-frame
  arrivals interleaved, a flow the application opts out of, a verdict
  beyond PASS/DROP, a call the recorder refuses, a meter without a plan —
  goes through one door,
  :meth:`PacketProcessingEngine._materialize_pending_bursts`, back into
  the per-frame lane, whether found at submit, on contact with a
  per-frame submit, or at drain.  No workload above deopts a frame
  (``compiled.deopt_frames == 0``); the differential suite drives every
  way in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import ceil
from typing import TYPE_CHECKING, Callable, Hashable, NoReturn

from ..errors import SimulationError
from ..fpga.timing import TimingSpec
from ..packet import Packet

if TYPE_CHECKING:  # pragma: no cover - break the hls<->core import cycle
    import numpy as np

    from ..hls.executor import CompiledProgram
    from ..hls.ir import PipelineSpec
from ..sim.engine import ServiceTimeline, Simulator
from ..sim.stats import Counter, Histogram
from .flowcache import FlowCache, record_recipe
from .tables import TableRegistry


class Direction(Enum):
    """Which way a packet is traversing the module."""

    EDGE_TO_LINE = "edge->line"  # host/switch toward the fiber
    LINE_TO_EDGE = "line->edge"  # fiber toward the host/switch

    # Members are singletons; identity hashing skips the Python-level
    # Enum.__hash__ on every per-frame dict/key operation.
    __hash__ = object.__hash__

    @property
    def reverse(self) -> "Direction":
        return (
            Direction.LINE_TO_EDGE
            if self is Direction.EDGE_TO_LINE
            else Direction.EDGE_TO_LINE
        )


class Verdict(Enum):
    """Outcome of processing one packet."""

    PASS = "pass"  # forward toward the packet's natural egress
    DROP = "drop"
    REFLECT = "reflect"  # send back out the ingress interface
    TO_CPU = "to_cpu"  # hand to the embedded control plane

    __hash__ = object.__hash__


class PPEContext:
    """Per-packet context handed to applications.

    ``emit`` lets an application originate additional packets (telemetry
    reports, mirrored frames); emitted packets leave through the interface
    for the given direction after the current packet completes.
    """

    __slots__ = ("time_ns", "direction", "device_id", "queue_depth", "_emitted")

    def __init__(
        self,
        time_ns: int,
        direction: Direction,
        device_id: int = 0,
        queue_depth: int = 0,
    ) -> None:
        self.time_ns = time_ns
        self.direction = direction
        self.device_id = device_id
        self.queue_depth = queue_depth
        self._emitted: list[tuple[Packet, Direction]] = []

    def emit(self, packet: Packet, direction: Direction) -> None:
        """Queue an application-originated packet for transmission."""
        self._emitted.append((packet, direction))

    @property
    def emitted(self) -> list[tuple[Packet, Direction]]:
        return self._emitted


# The fast engine's context: no Python-level ``__init__`` frame per frame.
_new_context = PPEContext.__new__


class PPEApplication(ABC):
    """A packet function deployable into a FlexSFP PPE.

    Subclasses populate ``self.tables`` with their match-action state (the
    control plane reads/writes through that registry) and keep functional
    statistics in ``self.counters``.

    Applications may implement :meth:`flow_key` to opt into the flow-cache
    fast path, whose recipes are recorded from ``process`` itself.  The one
    hand-written lane hook is :meth:`burst_plan`: a meter's verdict depends
    on each frame's arrival time, which no single recorded call reproduces.
    """

    name: str = "app"

    def __init__(self) -> None:
        self.tables = TableRegistry()
        self.counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create a named statistics counter."""
        if name not in self.counters:
            self.counters[name] = Counter(f"{self.name}.{name}")
        return self.counters[name]

    def count(self, name: str, packet: Packet) -> None:
        """``counter(name).count(packet.wire_len)`` in one call."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(f"{self.name}.{name}")
        counter.packets += 1
        counter.bytes += packet.wire_len

    @abstractmethod
    def pipeline_spec(self) -> "PipelineSpec":
        """The hardware pipeline this application synthesizes to."""

    @abstractmethod
    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        """Process one packet (mutating it in place); return a verdict."""

    # ------------------------------------------------------------------
    # Fast-path hooks (flow cache)
    # ------------------------------------------------------------------
    def flow_key(self, packet: Packet) -> Hashable | None:
        """Cache key identifying this packet's flow, or None to opt out.

        Return a key only when ``process`` does the same to every frame
        with that key: verdict, header stores and counter bumps depend on
        nothing but the key and table state.  The engine records the first
        frame's ``process`` call as a :class:`~repro.core.flowcache.FlowRecipe`
        (:func:`~repro.core.flowcache.record_recipe`) and replays it on
        later frames.  The engine adds the traversal direction to the key,
        so a key need not encode it.
        """
        return None

    def burst_plan(self, template: Packet, direction: Direction):
        """Sequential burst replay for meter-mode fusion, or None to deopt.

        Only consulted when the effect analysis classifies the pipeline as
        ``meter``-fusible (:mod:`repro.analysis.effects`).  The hook
        receives a burst's template frame and traversal direction and
        returns a callable ``plan(times_ns, size) -> [(Verdict, count)]``
        replaying the per-frame meter arithmetic in arrival order —
        bit-identical state updates and counter bumps, collapsed into
        contiguous same-verdict runs — or None to deopt the burst.  A plan
        must restrict itself to PASS/DROP verdicts and may not read the
        queue depth or emit packets (the analysis proves the pipeline has
        no effects beyond meter state, counters, and the verdict).
        """
        return None

    def config(self) -> dict:
        """Serializable constructor parameters (stored in bitstreams)."""
        return {}

    def metric_values(self) -> dict[str, int]:
        """Flat view of the app's own counters: ``<counter>.packets`` / ``.bytes``."""
        return {
            f"{name}.{key}": value
            for name, counter in self.counters.items()
            for key, value in counter.metric_values().items()
        }


# Per-frame completion: frame, verdict, emitted frames, the frame's wire size
# measured after processing (so no later hop re-walks the headers) and its
# virtual deliver time (so no later hop asks the clock).
DoneCallback = Callable[
    [Packet, Verdict, list[tuple[Packet, Direction]], int, float], None
]

# Compiled-burst delivery: one call per fused slice with the mutated
# template copy, the shared verdict and wire size, and the struct-of-arrays
# vector of per-frame virtual deliver times.
BurstDoneCallback = Callable[[Packet, Verdict, int, "np.ndarray"], None]

@dataclass(slots=True)
class _SliceHandover:
    """A processed fused slice not yet handed over: one verdict, one
    template copy and the slice's per-frame deliver / enqueue vectors,
    from which a cut hands over the prefix due by then."""

    done: BurstDoneCallback
    packet: Packet
    verdict: Verdict
    size: int
    deliver_s: "np.ndarray"
    enqueue_ns: "np.ndarray"


@dataclass(slots=True)
class _PendingBurst:
    """Struct-of-arrays record of one admitted compiled burst.

    ``enqueue_ns``/``finish`` are per-admitted-frame arrays; ``pos`` marks
    how far the drain has consumed the burst (finish times are
    non-decreasing, so the due set is always a prefix).  ``lane`` is the
    :meth:`PacketProcessingEngine._burst_lane` verdict and ``key`` the
    flow key of the recipe lane.
    """

    template: Packet
    size: int
    direction: Direction
    lane: str | None
    key: Hashable
    done_burst: BurstDoneCallback
    done_frame: DoneCallback
    enqueue_ns: "np.ndarray"
    finish: "np.ndarray"
    pos: int = 0


#: Frames the fast engine processes per scheduled event; compiled-tier
#: per-frame sources emit bursts of the same size so one burst fills one
#: group.  Why 256: the measured depth sweep in EXPERIMENTS.md ("Burst
#: depth"); every in-flight frame holds its own packet and tuples.
BURST_FRAMES = 256

#: Frames a compiled-tier template-burst source emits per tick: a pending
#: template burst holds 8 bytes per frame and a port admits it by vector
#: whenever no arrival finds the queue full, however deep it runs, so it
#: runs deeper than a per-frame group.  Why 4096: the template-lane sweep
#: in EXPERIMENTS.md.
TEMPLATE_BURST_FRAMES = 4096


class _EngineBase:
    """What both engines share: server parameters, counters, reporting."""

    #: The oracle has none; the fast engine sets its own.
    flow_cache: FlowCache | None = None

    def __init__(
        self,
        sim: Simulator,
        app: PPEApplication,
        timing: TimingSpec,
        queue_bytes: int,
        device_id: int,
        pipeline_depth: int,
    ) -> None:
        self.sim = sim
        self.app = app
        self.timing = timing
        self.queue_bytes = queue_bytes
        self.device_id = device_id
        # Pipeline fill latency is fixed per deployed app: the depth of the
        # pipeline it was verified with, which the caller hands over.
        self.pipeline_latency_s = pipeline_depth / timing.clock_hz
        self.processed = Counter("ppe.processed")
        self.overload_drops = Counter("ppe.overload_drops")
        self.verdict_counts: dict[Verdict, int] = {v: 0 for v in Verdict}
        self.latency_ns = Histogram.exponential(start=50.0, factor=2.0, count=16)
        # Per-size service-time memo: frame_service_time is a pure function
        # of the frame length for a fixed TimingSpec.
        self._service_time = lru_cache(maxsize=None)(timing.frame_service_time)
        # Optional packet tracer (duck-typed repro.obs.trace.Tracer — core
        # never imports obs).  Traced frames go through _apply_traced.
        self.tracer = None

    def _refuse(self, verdict: object) -> NoReturn:
        """Raise for an application that returned ``verdict``, not a
        :class:`Verdict`.  Callers test ``type(verdict) is Verdict`` inline
        (an enum with members has no subclasses) and call this only to raise."""
        raise SimulationError(
            f"application {self.app.name!r} returned {verdict!r} "
            "instead of a Verdict"
        )

    def _apply_traced(
        self,
        packet: Packet,
        size: int,
        direction: Direction,
        enqueue_ns: int,
        time_ns: int,
        queue_depth: int,
    ) -> tuple[Verdict, list[tuple[Packet, Direction]] | tuple, int]:
        """:meth:`_apply` on a traced frame, plus its ``ppe`` and ``app`` spans.

        The bracket observes the one apply from outside — headers before
        and after, queue residency from the frame's own ``enqueue_ns``,
        flow-cache hit/miss from the cache's own counters — so a traced
        frame runs exactly the code an untraced one does.  Stage names
        are string literals matching ``repro.obs.trace`` constants: core
        never imports obs.
        """
        tracer = self.tracer
        app = self.app
        before = tracer.snapshot_headers(packet)
        cache = self.flow_cache
        hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
        result = self._apply(packet, size, direction, time_ns, queue_depth)
        ppe_detail: dict[str, object] = {
            "app": app.name,
            "queue_depth": queue_depth,
        }
        if cache is not None:
            if cache.hits != hits:
                ppe_detail["fastpath"] = "hit"
            elif cache.misses != misses:
                ppe_detail["fastpath"] = "miss"
        tracer.record(
            packet,
            "ppe",
            f"ppe{self.device_id}",
            enqueue_ns,
            time_ns,
            direction,
            **ppe_detail,
        )
        app_detail: dict[str, object] = {"verdict": result[0].value}
        mutations = tracer.header_diff(before, packet)
        if mutations:
            app_detail["mutations"] = mutations
        tracer.record(
            packet, "app", app.name, time_ns, time_ns, direction, **app_detail
        )
        return result

    def metric_values(self) -> dict[str, object]:
        """Flat :class:`~repro.obs.registry.MetricSource` view.

        Keys are prefixed with the application name, so registering an
        engine under ``module0.ppe`` yields names like
        ``module0.ppe.nat.overload_drops.packets``.
        """
        prefix = self.app.name
        values: dict[str, object] = {}
        for group, counter in (
            ("processed", self.processed),
            ("overload_drops", self.overload_drops),
        ):
            for key, value in counter.metric_values().items():
                values[f"{prefix}.{group}.{key}"] = value
        for verdict, count in self.verdict_counts.items():
            values[f"{prefix}.verdicts.{verdict.value}"] = count
        for key, value in self.latency_ns.metric_values().items():
            values[f"{prefix}.latency_ns.{key}"] = value
        return values


class ReferenceEngine(_EngineBase):
    """The per-frame oracle: a FIFO queueing server at synthesized speed.

    Service time per frame is ``TimingSpec.frame_service_time`` — the
    number of datapath beats the frame occupies.  Packets arriving while
    the engine is busy wait in a bounded ingress FIFO; overflow is counted
    and dropped, which is exactly how the Two-Way-Core shell falls off
    line rate when it is not clocked up (Figure 1 discussion).

    One scheduled event per service completion, one per delivery, one
    ``process`` call per frame: slow, and simple enough to trust.
    """

    def __init__(
        self,
        sim: Simulator,
        app: PPEApplication,
        timing: TimingSpec,
        pipeline_depth: int,
        queue_bytes: int = 32 * 1024,
        device_id: int = 0,
    ) -> None:
        super().__init__(sim, app, timing, queue_bytes, device_id, pipeline_depth)
        # (packet, wire size, direction, done callback, enqueue ns)
        self._fifo: deque = deque()
        self._fifo_bytes = 0
        self._busy = False

    def submit(
        self,
        packet: Packet,
        direction: Direction,
        done: DoneCallback,
        at_s: float,
        size: int,
    ) -> bool:
        """Offer a packet to the engine; False when the ingress FIFO drops.

        ``at_s`` is the frame's arrival (service still starts from the
        current event) and ``size`` its wire size.
        """
        if self._fifo_bytes + size > self.queue_bytes:
            self.overload_drops.count(size)
            return False
        self._fifo.append((packet, size, direction, done, int(at_s * 1e9)))
        self._fifo_bytes += size
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        """Start serving the FIFO's head (the FIFO holds a frame)."""
        self._busy = True
        packet, size, direction, done, enqueue_ns = self._fifo.popleft()
        self._fifo_bytes -= size
        service = self._service_time(size)
        self.sim.schedule(
            service, self._finish, packet, size, direction, done, enqueue_ns
        )

    def _finish(
        self,
        packet: Packet,
        size: int,
        direction: Direction,
        done: DoneCallback,
        enqueue_ns: int,
    ) -> None:
        # The frame has streamed through; apply the functional behaviour,
        # then deliver after the pipeline fill latency.
        tracer = self.tracer
        time_ns = int(self.sim.now * 1e9)
        if tracer is not None and tracer.is_traced(packet):
            verdict, emitted, size = self._apply_traced(
                packet, size, direction, enqueue_ns, time_ns, self._fifo_bytes
            )
        else:
            verdict, emitted, size = self._apply(
                packet, size, direction, time_ns, self._fifo_bytes
            )
        self.sim.schedule(
            self.pipeline_latency_s,
            self._deliver,
            packet,
            verdict,
            emitted,
            size,
            done,
            enqueue_ns,
        )
        if self._fifo:
            self._start_next()
        else:
            self._busy = False

    def _apply(
        self,
        packet: Packet,
        size: int,
        direction: Direction,
        time_ns: int,
        queue_depth: int,
    ) -> tuple[Verdict, list[tuple[Packet, Direction]], int]:
        """Run the application on one frame: verdict, emitted, new wire size.

        ``size`` is the arrival size; the oracle ignores it and measures
        the frame after processing, which may have changed its length.
        """
        ctx = PPEContext(time_ns, direction, self.device_id, queue_depth)
        verdict = self.app.process(packet, ctx)
        if type(verdict) is not Verdict:
            self._refuse(verdict)
        size = packet.wire_len
        processed = self.processed  # Counter.count, inlined
        processed.packets += 1
        processed.bytes += size
        self.verdict_counts[verdict] += 1
        return verdict, ctx._emitted, size

    def _deliver(
        self,
        packet: Packet,
        verdict: Verdict,
        emitted: list[tuple[Packet, Direction]],
        size: int,
        done: DoneCallback,
        enqueue_ns: int,
    ) -> None:
        now = self.sim.now
        histogram = self.latency_ns  # Histogram.add, inlined
        latency = int(now * 1e9) - enqueue_ns
        histogram.counts[bisect_right(histogram.bounds, latency)] += 1
        histogram.total += 1
        done(packet, verdict, emitted, size, now)


class PacketProcessingEngine(_EngineBase):
    """The fast engine: reserve-at-submit service, grouped processing.

    Results are bit-identical to :class:`ReferenceEngine` (see the module
    docstring for the lanes and why each stays exact); ``flow_cache``
    enables recipe replay and ``program`` — the verified executor from
    :mod:`repro.hls.executor` — gates burst fusion.
    """

    def __init__(
        self,
        sim: Simulator,
        app: PPEApplication,
        timing: TimingSpec,
        pipeline_depth: int,
        queue_bytes: int = 32 * 1024,
        device_id: int = 0,
        flow_cache: FlowCache | None = None,
        program: "CompiledProgram | None" = None,
    ) -> None:
        super().__init__(sim, app, timing, queue_bytes, device_id, pipeline_depth)
        self.flow_cache = flow_cache
        # Whether the app keys flows is fixed per class, so it is decided
        # here, once: the app's bound ``flow_key`` when its class overrides
        # the base hook and a cache can hold recipes, else None (the base
        # hook opts every frame out, so no frame of such an app reaches
        # the cache).
        overrides = type(app).flow_key is not PPEApplication.flow_key
        self._flow_key = app.flow_key if overrides and flow_cache is not None else None
        self.fastpath_hits = Counter("ppe.fastpath_hits")
        # Struct-of-arrays bursts pending processing and fusion statistics.
        self.program = program
        self._bursts: deque = deque()
        self.compiled_bursts = 0
        self.compiled_frames = 0
        self.compiled_deopts = 0
        self._timeline = ServiceTimeline()
        # Frames reserve their service slot at submit time; processing is
        # grouped into one event per up-to-BURST_FRAMES frames.  _arrivals
        # mirrors (enqueue_ns, size) of reserved-but-unprocessed frames for
        # exact queue-depth reconstruction.
        self._group: list = []
        # The one cancellable drain event: armed at the open group's last
        # finish, or at the newest pending burst's (the two never coexist).
        self._drain_event = None
        self._arrivals: deque = deque()
        self._arrivals_bytes = 0
        # Processed work not yet handed over, in deliver order: a list of
        # per-frame delivery records or a _SliceHandover each, one deliver
        # event apiece.  A cut hands over the part due by then.
        self._handovers: deque = deque()
        sim.add_cut_hook(self._settle)
        # While True (inside a batched-delivery flush bracketed by
        # flush_begin/flush_end) submits skip per-frame group-event
        # re-arming; flush_end arms one event for the open group.
        self._defer_commit = False
        # Reentrancy guard: an application that writes its own tables
        # *during* processing (telemetry, policers) fires the pre-mutation
        # drain hook from inside _process_due; the nested call must no-op.
        self._processing = False
        # Control-plane writes land between packets.  Frames whose virtual
        # service already finished but that still sit in a pending group
        # must be decided against the pre-write table state, exactly as
        # the oracle would have.
        app.tables.on_before_mutate = self._process_due

    def submit(
        self,
        packet: Packet,
        direction: Direction,
        done: DoneCallback,
        at_s: float,
        size: int,
    ) -> bool:
        """Offer a packet to the engine; False when the ingress FIFO drops.

        ``at_s`` is the frame's (virtual) arrival time — for
        batch-delivered ingress it may lead ``sim.now`` by up to one
        delivery batch — and must be non-decreasing across calls.
        ``size`` is the frame's wire size.

        The service slot is reserved at the arrival time (``start =
        max(arrival, free_at)`` — the float sequence of the sequential
        schedule), which keeps the occupancy check exactly the oracle's
        "arrived but not yet started" set even when batch-delivered
        ingress submits several frames per real event.  Processing is
        deferred to a group event re-armed at the newest frame's finish
        and closed at :data:`BURST_FRAMES` frames.
        """
        if self._bursts:
            # A per-frame submit while compiled bursts are pending: collapse
            # the burst lane into the per-frame lane first so one
            # finish-ordered queue drains both.
            self._materialize_pending_bursts()
        finish = self._timeline.admit(
            at_s, size, self._service_time(size), self.queue_bytes
        )
        if finish is None:
            self.overload_drops.count(size)
            return False
        frame = (packet, size, direction, done, int(at_s * 1e9), finish)
        # The arrivals mirror shares the frame tuples (enqueue at [4],
        # size at [1]) so admission costs one allocation, not two.
        self._arrivals.append(frame)
        self._arrivals_bytes += size
        group = self._group
        group.append(frame)
        event = self._drain_event
        if event is not None:
            event.cancel()
            self._drain_event = None
        if len(group) >= BURST_FRAMES:
            self._group = []
            now = self.sim.now
            self.sim.schedule_at(
                finish if finish > now else now, self._process_due
            )
        elif not self._defer_commit:
            self._arm_drain(finish)
        return True

    def flush_begin(self) -> None:
        """Enter a batched-delivery flush: defer group-event arming."""
        self._defer_commit = True

    def flush_end(self) -> None:
        """Leave a flush: arm one group event for the open remainder."""
        self._defer_commit = False
        self._arm_group()

    def _arm_group(self) -> None:
        group = self._group
        if group and self._drain_event is None:
            self._arm_drain(group[-1][5])

    def _arm_drain(self, at: float) -> None:
        """(Re-)arm the one cancellable drain event at ``at``, clamped to now."""
        event = self._drain_event
        if event is not None:
            event.cancel()
        now = self.sim.now
        self._drain_event = self.sim.schedule_at(
            at if at > now else now, self._drain_event_fired
        )

    # ------------------------------------------------------------------
    # Grouped per-frame execution
    # ------------------------------------------------------------------
    def _drain_event_fired(self) -> None:
        self._drain_event = None
        self._process_due()

    def _settle(self, until: float) -> None:
        """The engine's cut hook: state at ``until`` as the oracle has it.

        Processes every frame, per-frame or fused, that has finished by
        ``until`` and hands over every delivery due by then; the deliver
        events still fire and hand over whatever is left.
        """
        self._process_due(until)
        for record in self._handovers:
            if type(record) is list:
                due = 0
                for delivery in record:
                    if delivery[6] > until:
                        break
                    due += 1
                if due:
                    self._deliver_frames(record[:due])
                    del record[:due]
                if record:
                    return
            else:
                deliver_s = record.deliver_s
                due = int(deliver_s.searchsorted(until, side="right"))
                if due:
                    enqueue_ns = record.enqueue_ns
                    record.deliver_s = deliver_s[due:]
                    record.enqueue_ns = enqueue_ns[due:]
                    self._deliver_slice(record, deliver_s[:due], enqueue_ns[:due])
                if due < len(deliver_s):
                    return

    def _process_due(self, due: float | None = None) -> None:
        """Process every reserved frame whose virtual service has finished
        by ``due`` (default: now).

        Finish times are strictly increasing across submits (``start =
        max(arrival, free_at)``, service > 0), so the due set is always a
        prefix of the arrival queue — batch events, open-group events and
        the pre-mutation table hook all drain through this one method.
        The hook call is what keeps control-plane writes atomic *between
        packets*: a write landing mid-batch first forces every frame whose
        virtual decision time already passed to be decided against the
        pre-write table state, exactly as the oracle does.
        An event that fires after an earlier drain already consumed its
        frames is a no-op.  A cut (:meth:`_settle`) passes its ``until``.
        """
        if self._processing:
            # An application writing its own tables mid-processing fired
            # the drain hook reentrantly; the outer loop is the drain.
            return
        self._processing = True
        try:
            if due is None:
                due = self.sim.now
            if self._bursts:
                # Compiled bursts and per-frame arrivals never coexist
                # (either side materializes the other on contact), so this
                # either drains the burst lane or — on a deopt — turns it
                # into the arrivals the per-frame drain below picks up.
                self._process_due_bursts(due)
            arrivals = self._arrivals
            if not arrivals or arrivals[0][5] > due:
                return
            # Occupancy drains to the clock, never past it: a later submit
            # may still arrive before ``due``.
            self._timeline.drain(self.sim.now)
            frame = arrivals[0]
            first_finish_ns = int(frame[5] * 1e9)
            if (len(arrivals) == 1 or arrivals[1][5] > due) and (
                arrivals[-1][4] <= first_finish_ns
            ):
                # One due frame and nothing in flight behind it (the
                # newest arrival is enqueued by its finish): the oracle's
                # depth is the rest of the queue, and the frame can only
                # be the open group's head.
                arrivals.popleft()
                self._arrivals_bytes = depth = self._arrivals_bytes - frame[1]
                packet, size, direction, done, enqueue_ns, finish = frame
                tracer = self.tracer
                if tracer is not None and tracer.is_traced(packet):
                    verdict, emitted, size = self._apply_traced(
                        packet, size, direction, enqueue_ns, first_finish_ns, depth
                    )
                else:
                    verdict, emitted, size = self._apply(
                        packet, size, direction, first_finish_ns, depth
                    )
                deliveries = [(
                    packet, verdict, emitted, size, done, enqueue_ns,
                    finish + self.pipeline_latency_s,
                )]  # fmt: skip
                group = self._group
                if group and group[0] is frame:
                    del group[0]
            else:
                deliveries = self._run_due(arrivals, due, first_finish_ns)
            # _queue_handover, inlined: once per drain.
            self._handovers.append(deliveries)
            self.sim.schedule_at(due + self.pipeline_latency_s, self._hand_over_next)
        finally:
            self._processing = False

    def _run_due(
        self, arrivals: deque, due: float, first_finish_ns: int
    ) -> list[tuple[Packet, Verdict, list, int, DoneCallback, int, float]]:
        """Run every due frame of a drain in finish order; their deliveries
        (the records :meth:`_deliver_frames` hands over).

        Each frame's queue depth is reconstructed as the oracle would have
        seen it at that frame's finish time: every arrival after it that
        is enqueued no later than the finish.  Arrivals are submit-ordered
        (non-decreasing enqueue time), so the "not yet arrived" entries —
        reservations delivered early by a batched flush — form a
        contiguous tail of the deque at most one flush long; only that
        tail is walked, keeping the reconstruction O(batch) rather than
        O(queue depth).
        """
        future: list = []
        future_bytes = 0
        for entry in reversed(arrivals):
            if entry[4] <= first_finish_ns:
                break
            future.append(entry)
            future_bytes += entry[1]
        remaining_bytes = self._arrivals_bytes
        tracer = self.tracer
        apply = self._apply
        latency_s = self.pipeline_latency_s
        deliveries = []
        append = deliveries.append
        while arrivals and arrivals[0][5] <= due:
            packet, size, direction, done, enqueue_ns, finish = arrivals.popleft()
            remaining_bytes -= size
            finish_ns = int(finish * 1e9)
            # Drop matured entries — including this frame's own, and
            # those of already-processed frames — so ``future`` holds
            # exactly the arrivals still in flight at this finish.
            while future and future[-1][4] <= finish_ns:
                future_bytes -= future[-1][1]
                future.pop()
            depth = remaining_bytes - future_bytes
            if tracer is not None and tracer.is_traced(packet):
                verdict, emitted, size = self._apply_traced(
                    packet, size, direction, enqueue_ns, finish_ns, depth
                )
            else:
                verdict, emitted, size = apply(
                    packet, size, direction, finish_ns, depth
                )
            append(
                (packet, verdict, emitted, size, done, enqueue_ns, finish + latency_s)
            )
        self._arrivals_bytes = remaining_bytes
        group = self._group
        if group and group[0][5] <= due:
            # The drain ate into the open group (pre-mutation hook, a cut
            # or a late event); keep only the still-unprocessed suffix.
            self._group = [frame for frame in group if frame[5] > due]
        return deliveries

    def _queue_handover(self, record: "list | _SliceHandover", due: float) -> None:
        """Queue what one drain processed by ``due``; arm its deliver event.

        The event fires one pipeline latency after ``due``, by when every
        frame of the record, and of every record queued before it, is due.
        """
        self._handovers.append(record)
        self.sim.schedule_at(due + self.pipeline_latency_s, self._hand_over_next)

    def _hand_over_next(self) -> None:
        """A deliver event: hand over the rest of the oldest record.

        Events and records pair one to one, and without a cut each event
        meets its own record.  Taking the oldest instead keeps deliveries
        in deliver order when a cut's record (its event one latency past
        the cut) is followed by one whose event is earlier.
        """
        record = self._handovers.popleft()
        if type(record) is list:
            # _deliver_frames, inlined: most drains on a per-frame fabric
            # hold one frame, so a call here would be a call per frame.
            histogram = self.latency_ns
            histogram.total += len(record)
            bounds = histogram.bounds
            counts = histogram.counts
            for packet, verdict, emitted, size, done, enqueue_ns, deliver_s in record:
                counts[bisect_right(bounds, int(deliver_s * 1e9) - enqueue_ns)] += 1
                done(packet, verdict, emitted, size, deliver_s)
        elif len(record.deliver_s):
            self._deliver_slice(record, record.deliver_s, record.enqueue_ns)

    def _deliver_frames(
        self,
        deliveries: list[tuple[Packet, Verdict, list, int, DoneCallback, int, float]],
    ) -> None:
        # Done callbacks run at the batch tail but are handed each frame's
        # virtual deliver time (``finish + pipeline_latency`` — the exact
        # float the oracle's schedule computes), so the consumer keeps
        # downstream timestamps identical via ``Port.send_at``.  Each
        # latency is binned as ``Histogram.add`` bins it, with no call per
        # frame, and the total grows once per record.
        histogram = self.latency_ns
        histogram.total += len(deliveries)
        bounds = histogram.bounds
        counts = histogram.counts
        for packet, verdict, emitted, size, done, enqueue_ns, deliver_s in deliveries:
            counts[bisect_right(bounds, int(deliver_s * 1e9) - enqueue_ns)] += 1
            done(packet, verdict, emitted, size, deliver_s)

    # ------------------------------------------------------------------
    # Compiled burst execution
    # ------------------------------------------------------------------
    def submit_burst(
        self,
        template: Packet,
        size: int,
        direction: Direction,
        times: "np.ndarray",
        done_burst: BurstDoneCallback,
        done_frame: DoneCallback,
    ) -> int:
        """Offer a same-flow burst as one template plus arrival times.

        The compiled engine's struct-of-arrays ingress: ``times`` is a
        non-decreasing float64 array of virtual arrival seconds, one per
        frame, every frame sharing ``template``'s headers and ``size``.
        Admission is :meth:`submit`'s, through the same timeline kernel,
        so tail drops and service times are bit-identical to submitting
        each frame individually.  Returns the number of admitted frames.

        A burst :meth:`_burst_lane` cannot fuse deopts right here: its
        admitted frames materialize into the per-frame lane with
        ``done_frame`` as their completion callback.
        """
        import numpy as np

        times = np.ascontiguousarray(times, dtype=np.float64)
        if len(times) == 0:
            return 0
        admitted_at, finishes = self._timeline.admit_burst(
            times, size, self._service_time(size), self.queue_bytes
        )
        count = len(finishes)
        if count < len(times):
            drops = len(times) - count
            self.overload_drops.packets += drops
            self.overload_drops.bytes += drops * size
            if count == 0:
                return 0
        lane, key = self._burst_lane(template)
        self._bursts.append(
            _PendingBurst(
                template,
                size,
                direction,
                lane,
                key,
                done_burst,
                done_frame,
                (admitted_at * 1e9).astype(np.int64),
                finishes,
            )
        )
        if lane is None:
            self._materialize_pending_bursts()
            return count
        self.compiled_bursts += 1
        # One armed drain event at the newest burst's final finish covers
        # every pending burst (finish order is global).
        self._arm_drain(float(finishes[-1]))
        return count

    def _burst_lane(self, template: Packet) -> tuple[str | None, Hashable]:
        """Which fused lane a burst of ``template`` frames takes, if any.

        The one place the lane is chosen: ``("recipe", flow_key)`` when the
        effect analysis proved the program ``pure`` and the application
        names the template's flow, ``("meter", None)`` when it proved a
        sequential meter, ``(None, None)`` — the per-frame lane — for a
        program that is not fusible, a flow the application opts out of,
        an attached tracer (recipes skip per-stage spans) or per-frame
        arrivals already queued (one finish-ordered queue drains both).
        Being admitted to a lane is not a promise: the drain deopts a
        burst whose recipe or plan turns out not to be fusible.
        """
        program = self.program
        if (
            program is None
            or not program.fusible
            or self.tracer is not None
            or self._arrivals
        ):
            return None, None
        if program.mode == "meter":
            return "meter", None
        flow_key = self._flow_key
        key = None if flow_key is None else flow_key(template)
        return ("recipe", key) if key is not None else (None, None)

    def _process_due_bursts(self, due: float) -> None:
        """Drain every burst frame whose virtual service has finished by ``due``.

        The burst half of :meth:`_process_due`.  Due frames form a prefix
        of each pending burst, and each due slice collapses into one
        fused application.  A slice that cannot fuse deopts the whole
        burst lane into per-frame arrivals, which the caller then drains.
        """
        self._timeline.drain(self.sim.now)
        bursts = self._bursts
        while bursts:
            burst = bursts[0]
            finish = burst.finish
            pos = burst.pos
            end = int(finish.searchsorted(due, side="right"))
            if end <= pos:
                break
            fuse = (
                self._fuse_meter_slice if burst.lane == "meter" else self._fuse_slice
            )
            if not fuse(burst, pos, end, due):
                self._materialize_pending_bursts()
                break
            if end < len(finish):
                burst.pos = end
                break
            bursts.popleft()

    def _fuse_slice(
        self, burst: _PendingBurst, pos: int, end: int, due: float
    ) -> bool:
        """Process one due slice with a single fused recipe application.

        False — nothing applied, nothing counted — when the flow's recipe
        is not one the fused contract can express: the recorder refuses
        the flow's ``process`` call, or the verdict needs per-frame
        handling downstream.
        """
        count = end - pos
        app = self.app
        direction = burst.direction
        size = burst.size
        generation = app.tables.generation()
        recipe = self.flow_cache.lookup((direction, burst.key), generation)
        decided = 0
        if recipe is None:
            # Slow-path probe: one recorded process() call stands for the
            # whole slice; the recorder refuses a call that reads what
            # differs between its frames (arrival time, queue depth).
            recipe = record_recipe(app, burst.template, direction, self.device_id)
            if recipe is None:
                return False
            self.flow_cache.insert((direction, burst.key), recipe, generation)
            decided = 1
        verdict = recipe.verdict
        if verdict is not Verdict.PASS and verdict is not Verdict.DROP:
            # REFLECT / TO_CPU need per-frame downstream handling.
            return False
        packet = burst.template.copy()
        applied = recipe.apply_burst(packet, app, size, count)
        # Hits are counted at arrival size; ``processed`` and the
        # delivered size reflect the recipe's structural ops (e.g. a VLAN
        # push grows every frame by 4 bytes), matching the slow path's
        # post-process wire length.
        effective = size + recipe.size_delta
        hits = self.fastpath_hits
        hits.packets += count - decided
        hits.bytes += (count - decided) * size
        processed = self.processed
        processed.packets += count
        processed.bytes += count * effective
        self.verdict_counts[applied] += count
        self.compiled_frames += count
        self._queue_handover(
            _SliceHandover(
                burst.done_burst,
                packet,
                applied,
                effective,
                burst.finish[pos:end] + self.pipeline_latency_s,
                burst.enqueue_ns[pos:end],
            ),
            due,
        )
        return True

    def _fuse_meter_slice(
        self, burst: _PendingBurst, pos: int, end: int, due: float
    ) -> bool:
        """Process one due slice through the sequential meter lane.

        No recipe and no flow cache: the application's
        :meth:`~PPEApplication.burst_plan` replays its time-varying state
        (token buckets) over the slice's arrival times in order —
        bit-identical arithmetic to per-frame ``process`` calls — and
        returns contiguous verdict runs.  Each run delivers as one fused
        burst; nothing is cached, so the next slice replans against the
        then-current meter state.  False when the application has no
        plan for this template.
        """
        import numpy as np

        app = self.app
        size = burst.size
        plan = app.burst_plan(burst.template, burst.direction)
        if plan is None:
            return False
        count = end - pos
        times_ns = (burst.finish[pos:end] * 1e9).astype(np.int64).tolist()
        runs = plan(times_ns, size)
        if sum(n for _verdict, n in runs) != count:
            raise SimulationError(
                f"application {app.name!r} burst plan covered "
                f"{sum(n for _v, n in runs)} of {count} frames"
            )
        processed = self.processed
        processed.packets += count
        processed.bytes += count * size
        self.compiled_frames += count
        pipeline_latency_s = self.pipeline_latency_s
        offset = pos
        for verdict, n in runs:
            seg_finish = burst.finish[offset : offset + n]
            self.verdict_counts[verdict] += n
            self._queue_handover(
                _SliceHandover(
                    burst.done_burst,
                    burst.template.copy(),
                    verdict,
                    size,
                    seg_finish + pipeline_latency_s,
                    burst.enqueue_ns[offset : offset + n],
                ),
                due,
            )
            offset += n
        return True

    def _materialize_pending_bursts(self) -> None:
        """Collapse the burst lane into the per-frame arrival queue.

        The one deopt, whatever triggered it — a burst no lane takes, a
        per-frame submit landing on pending bursts, a due slice that
        would not fuse: every unprocessed burst frame becomes a regular
        reserved arrival (its own packet copy, its own enqueue time), so
        the ordinary per-frame drain handles it with the exact queue
        depth.  Reservation state is untouched — burst admission already
        reserved per frame — and groups close every :data:`BURST_FRAMES`
        frames exactly as :meth:`submit` closes them.
        """
        bursts = self._bursts
        self._bursts = deque()
        event = self._drain_event
        if event is not None:
            event.cancel()
            self._drain_event = None
        arrivals = self._arrivals
        group = self._group
        before = len(arrivals)
        for burst in bursts:
            template = burst.template
            size = burst.size
            direction = burst.direction
            done = burst.done_frame
            pos = burst.pos
            for enqueue_ns, finish in zip(
                burst.enqueue_ns[pos:].tolist(), burst.finish[pos:].tolist()
            ):
                frame = (template.copy(), size, direction, done, enqueue_ns, finish)
                arrivals.append(frame)
                group.append(frame)
            self._arrivals_bytes += (len(burst.finish) - pos) * size
        self.compiled_deopts += len(arrivals) - before
        now = self.sim.now
        while len(group) >= BURST_FRAMES:
            finish = group[BURST_FRAMES - 1][5]
            self.sim.schedule_at(finish if finish > now else now, self._process_due)
            del group[:BURST_FRAMES]
        if not self._defer_commit:
            self._arm_group()

    def _deliver_slice(
        self,
        record: _SliceHandover,
        deliver_s: "np.ndarray",
        enqueue_ns: "np.ndarray",
    ) -> None:
        # One histogram update per fused slice, exact to folding add():
        # bisect_right of the slice's min and max picks the buckets it
        # reaches, and each bound it straddles splits them with one count
        # of the latencies below it.  A keep-up slice's latencies are one
        # constant up to nanosecond truncation, so it nearly always spans
        # one bucket and costs two reductions.  The int64 cast truncates
        # exactly like int(), and for an int latency ``v < bound`` is
        # ``v < ceil(bound)``, which numpy compares without a float copy.
        import numpy as np

        latencies = (deliver_s * 1e9).astype(np.int64) - enqueue_ns
        histogram = self.latency_ns
        bounds = histogram.bounds
        counts = histogram.counts
        first = bisect_right(bounds, int(latencies.min()))
        last = bisect_right(bounds, int(latencies.max()))
        below = 0
        for index in range(first, last):
            under = int(np.count_nonzero(latencies < ceil(bounds[index])))
            counts[index] += under - below
            below = under
        counts[last] += len(latencies) - below
        histogram.total += len(latencies)
        record.done(record.packet, record.verdict, record.size, deliver_s)

    # ------------------------------------------------------------------
    # Functional application (flow cache + slow path)
    # ------------------------------------------------------------------
    def _apply(
        self,
        packet: Packet,
        size: int,
        direction: Direction,
        finish_ns: int,
        queue_depth: int,
    ) -> tuple[Verdict, list[tuple[Packet, Direction]] | tuple, int]:
        """Run the application on one frame, via the flow cache if possible.

        Recipe replays never see a context (the application is not
        entered), so they report an empty emitted tuple; a recipe's
        structural ops may change the frame length, so the size returned
        (and counted as ``processed``) is ``size`` plus the recipe's
        ``size_delta``.  A miss records the flow's recipe from one probe
        ``process`` call and replays it on the frame; a flow the recorder
        refuses gets the identical ``PPEContext`` the oracle constructs.
        """
        app = self.app
        flow_key = self._flow_key
        if flow_key is not None:
            key = flow_key(packet)
            if key is not None:
                cache = self.flow_cache
                generation = app.tables.generation()
                recipe = cache.lookup((direction, key), generation)
                if recipe is not None:
                    hits = self.fastpath_hits
                    hits.packets += 1
                    hits.bytes += size
                    verdict = recipe.apply(packet, app, size)
                    size += recipe.size_delta
                    processed = self.processed
                    processed.packets += 1
                    processed.bytes += size
                    self.verdict_counts[verdict] += 1
                    return verdict, (), size
                recipe = record_recipe(app, packet, direction, self.device_id)
                if recipe is not None:
                    cache.insert((direction, key), recipe, generation)
                    verdict = recipe.apply(packet, app, size)
                    if type(verdict) is not Verdict:
                        self._refuse(verdict)
                    size += recipe.size_delta
                    processed = self.processed
                    processed.packets += 1
                    processed.bytes += size
                    self.verdict_counts[verdict] += 1
                    return verdict, (), size
        ctx = _new_context(PPEContext)
        ctx.time_ns = finish_ns
        ctx.direction = direction
        ctx.device_id = self.device_id
        ctx.queue_depth = queue_depth
        ctx._emitted = []
        verdict = app.process(packet, ctx)
        if type(verdict) is not Verdict:
            self._refuse(verdict)
        # Measured post-process: applications may change the frame length.
        size = packet.wire_len
        processed = self.processed
        processed.packets += 1
        processed.bytes += size
        self.verdict_counts[verdict] += 1
        return verdict, ctx._emitted, size

    def metric_values(self) -> dict[str, object]:
        prefix = self.app.name
        values = super().metric_values()
        if self.flow_cache is not None:
            for key, value in self.flow_cache.metric_values().items():
                values[f"{prefix}.flow_cache.{key}"] = value
            for key, value in self.fastpath_hits.metric_values().items():
                values[f"{prefix}.fastpath_hits.{key}"] = value
        if self.program is not None:
            # Wall-clock compile time is read off ``self.program`` only:
            # metric values must repeat exactly across runs.
            values[f"{prefix}.compiled.bursts"] = self.compiled_bursts
            values[f"{prefix}.compiled.recipe_frames"] = self.compiled_frames
            values[f"{prefix}.compiled.deopt_frames"] = self.compiled_deopts
        return values
