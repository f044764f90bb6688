"""Differential equivalence: the compiled engine tier vs reference.

The compiled tier's contract is zero semantic divergence: fusing verified
pipeline IR into per-flow recipe programs and moving whole bursts through
the struct-of-arrays lane must change *nothing* about the simulated
results — verdict counts, functional application counters, drop counts,
delivered bytes, and the per-frame latency distribution stay bit-identical
to the reference per-frame engine.  This suite drives every registered
application through both engines under three ingress shapes — a seeded
IMIX delivered in multi-frame flushes (flow cache, grouped processing),
the same IMIX one frame per event behind a store-and-forward hop (the
``-event`` cases: ``FlexSFPModule._ingress``, a ``submit`` at ``sim.now``,
the open-group event re-armed per frame, which is the shape chaos and
fleet-upgrade traffic has behind a legacy switch), and template bursts of
same-flow CBR (the fused lane) — and compares, then pins the deopt paths:
a non-fusible application, a tracer attachment, per-frame arrivals
interleaved into the burst lane, and a control-plane table write mid-run.
"""

import random

import numpy as np
import pytest

from repro._util import ip_to_int
from repro.apps import APP_FACTORIES, StaticNat, create_app
from repro.core import FlexSFPModule
from repro.core.module import source_burst
from repro.core.ppe import BURST_FRAMES, Verdict
from repro.netem import CbrSource, ImixSource
from repro.packet import make_dns_query, make_tcp, make_udp, make_udp6
from repro.sim import Port, Simulator, connect
from repro.sim.mac import frame_wire_bytes
from repro.nfv import Deployment

KEY = b"compiled-differential-key"
RUN_S = 0.3e-3
RATE_BPS = 5e9
SEED = 7

# Applications the effect analysis proves fusible AND that implement the
# runtime hook their proven lane needs (flow_key for pure recipes, which
# the engine records from process; burst_plan for the sequential meter
# lane); for these a same-flow CBR burst run must record fused frames
# (otherwise the differential passes vacuously with the fused lane never
# engaged).
FUSIBLE_APPS = {
    "nat",
    "firewall",
    "loadbalancer",
    "dnsfilter",
    "ratelimiter",
    "vlan",
}

# Applications whose ``flow_key`` names plain IPv4 flows and whose
# ``process`` records into a cacheable recipe; for these the IMIX run
# must also record flow-cache hits (otherwise the differential would pass
# vacuously with the cache never engaged).
CACHED_APPS = {"nat", "firewall", "loadbalancer", "dnsfilter"}

SRC_IPS = [f"10.0.0.{i}" for i in range(1, 9)]
DST_IPS = [f"203.0.113.{i}" for i in range(1, 5)]


def make_imix_factory(seed: int):
    """Seeded mixed-traffic factory: a small flow pool with repeats.

    Eight sources times four destinations gives 32 flows, so the IMIX
    stream revisits flows often enough for real cache hits while still
    exercising insertion and lookup across many keys.  The RNG is local
    to the factory, so two runs built with the same seed emit identical
    packet sequences regardless of engine.
    """
    rng = random.Random(seed)

    def factory(index: int, frame_len: int) -> object:
        src = rng.choice(SRC_IPS)
        dst = rng.choice(DST_IPS)
        sport = 10_000 + rng.randrange(4)
        kind = rng.randrange(10)
        payload = bytes(max(0, frame_len - 42))
        if kind < 6:
            return make_udp(
                src_ip=src, dst_ip=dst, sport=sport, dport=20_000,
                payload=payload,
            )
        if kind < 8:
            return make_tcp(src_ip=src, dst_ip=dst, sport=sport, dport=80)
        if kind == 8:
            return make_udp6(payload=payload)
        return make_dns_query("www.example.com", src_ip=src)

    return factory


def build_module(sim: Simulator, name: str, engine, per_event: bool = False) -> tuple:
    """Module + host + fiber (see :func:`wire` for ``per_event``)."""
    app = create_app(name)
    if name == "nat":
        for src in SRC_IPS:
            app.add_mapping(src, src.replace("10.0.0.", "198.51.100."))
    module = FlexSFPModule(sim, "dut", Deployment.solo(app), auth_key=KEY, engine=engine)
    return (module, *wire(sim, module, per_event))


def cable(sim: Simulator, host: Port, module, per_event: bool = False) -> None:
    """Connect ``host`` to the module's edge.

    ``per_event`` splices a store-and-forward hop in between (a legacy
    switch upstream) whose host-facing port attaches per frame:
    every frame crosses it as its own simulator event and is re-sent at
    ``sim.now``, so whatever the tier the module takes its frames one
    event at a time instead of in multi-frame flushes.
    """
    if not per_event:
        connect(host, module.edge_port)
        return
    tap = Port(sim, "tap", 10e9, queue_bytes=1 << 22)
    relay = Port(sim, "relay", 10e9, queue_bytes=1 << 22)
    tap.attach(lambda port, packet, size, when: relay.send(packet))
    relay.attach(lambda port, packet, size, when: tap.send(packet))
    connect(host, tap)
    connect(relay, module.edge_port)


def wire(sim: Simulator, module, per_event: bool = False) -> tuple:
    """Host and fiber ports cabled to the module."""
    host = Port(sim, "host", 10e9, queue_bytes=1 << 20)
    fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 20)
    cable(sim, host, module, per_event)
    connect(module.line_port, fiber)
    return host, fiber


def burst_of(module, template_burst: bool = False) -> int:
    """Source burst size matching the module's tier, as a scenario's."""
    return source_burst(module.engine, template_burst)


def compiled_stats(ppe) -> dict:
    """The engine's ``<app>.compiled.*`` leaves, keyed by leaf name."""
    prefix = f"{ppe.app.name}.compiled."
    return {
        name.removeprefix(prefix): value
        for name, value in ppe.metric_values().items()
        if name.startswith(prefix)
    }


def results_of(module, host, fiber) -> dict:
    return {
        "verdicts": {v.value: n for v, n in module.ppe.verdict_counts.items()},
        "processed": module.ppe.processed.metric_values(),
        "overload_drops": module.ppe.overload_drops.metric_values(),
        "latency_ns": module.ppe.latency_ns.metric_values(),
        "app_counters": module.app.metric_values(),
        "delivered": fiber.rx.metric_values(),
        "returned": host.rx.metric_values(),
        "edge_drops": module.edge_port.drops.metric_values(),
        "line_drops": module.line_port.drops.metric_values(),
    }


def run_imix(
    name: str,
    engine: str,
    tracer_packets: int | None = None,
    per_event: bool = False,
):
    sim = Simulator()
    module, host, fiber = build_module(sim, name, engine, per_event)
    if tracer_packets is not None:
        from repro.obs.trace import Tracer

        module.attach_tracer(Tracer(limit=tracer_packets))
    ImixSource(
        sim,
        host,
        rate_bps=RATE_BPS,
        stop=RUN_S,
        factory=make_imix_factory(SEED),
        seed=SEED,
        burst=1 if per_event else burst_of(module),
    )
    sim.run(until=RUN_S + 0.2e-3)
    return results_of(module, host, fiber), module


def run_cbr_burst(name: str, engine: str):
    """Same-flow CBR through the template-burst lane (fusion's home turf)."""
    sim = Simulator()
    module, host, fiber = build_module(sim, name, engine)
    template = make_udp(
        src_ip="10.0.0.1", dst_ip="203.0.113.1", sport=10_000, dport=20_000,
        payload=bytes(80),
    )
    CbrSource(
        sim,
        host,
        rate_bps=RATE_BPS,
        frame_len=template.wire_len,
        stop=RUN_S,
        factory=lambda index, size: template.copy(),
        burst=burst_of(module, template_burst=True),
        template_burst=module.engine == "compiled",
    )
    sim.run(until=RUN_S + 0.2e-3)
    return results_of(module, host, fiber), module


def check_imix_matches_reference(name: str, per_event: bool = False) -> None:
    reference, _ = run_imix(name, "reference", per_event=per_event)
    compiled, module = run_imix(name, "compiled", per_event=per_event)
    assert compiled == reference, name
    # Real traffic, well past the BURST_FRAMES group boundary...
    assert reference["processed"]["packets"] > 50, name
    assert module.program is not None
    # ...and for recipe-producing apps the cache demonstrably engaged.
    if name in CACHED_APPS:
        cache = module.ppe.flow_cache
        assert cache.hits > 0, f"{name}: flow cache never hit"
        assert cache.hit_rate > 0.2, f"{name}: {cache.metric_values()}"


@pytest.mark.parametrize(
    "name, per_event",
    [
        # The multi-frame-flush cases keep their bare ids.
        pytest.param(name, per_event, id=f"{name}-event" if per_event else name)
        for per_event in (False, True)
        for name in sorted(APP_FACTORIES)
    ],
)
def test_compiled_imix_matches_reference(name, per_event):
    check_imix_matches_reference(name, per_event=per_event)


@pytest.mark.parametrize("name", sorted(APP_FACTORIES))
def test_compiled_burst_matches_reference(name):
    reference, _ = run_cbr_burst(name, "reference")
    compiled, module = run_cbr_burst(name, "compiled")
    assert compiled == reference, name
    assert reference["processed"]["packets"] > 50, name
    stats = compiled_stats(module.ppe)
    if name in FUSIBLE_APPS:
        assert stats["bursts"] > 0, f"{name}: burst lane never engaged"
        assert stats["recipe_frames"] > 0, f"{name}: no fused frames: {stats}"
    if not module.program.fusible:
        # Non-fusible programs accept bursts but deopt every frame to the
        # exact per-frame lane — the equality above proves that lane right.
        assert stats["deopt_frames"] > 0, f"{name}: {stats}"
        assert stats["recipe_frames"] == 0, f"{name}: {stats}"


def test_tracer_deopts_to_reference_arithmetic():
    """An attached tracer disables fusion (recipes skip per-stage spans)
    without changing any simulated result."""
    reference, _ = run_imix("nat", "reference")
    traced, module = run_imix("nat", "compiled", tracer_packets=4)
    assert traced == reference
    stats = compiled_stats(module.ppe)
    assert stats["recipe_frames"] == 0, stats


def test_interleaved_frames_deopt_burst():
    """Per-frame arrivals landing between bursts reach the engine while a
    burst is still pending there (the host port queues both kinds in
    arrival order and hands each to its own handler), so the engine's one
    materialiser runs; the mixed stream still matches reference exactly.
    The stream is 1.3 bursts of the scenarios' depth long, so strays land
    inside the first burst and the second one, whatever that depth."""
    depth = source_burst("compiled", template_burst=True)
    frame_len = make_udp(payload=bytes(80)).wire_len
    stop = 1.3 * depth * frame_wire_bytes(frame_len) * 8 / RATE_BPS

    def run(engine: str):
        sim = Simulator()
        module, host, fiber = build_module(sim, "nat", engine)
        template = make_udp(
            src_ip="10.0.0.1", dst_ip="203.0.113.1", sport=10_000,
            dport=20_000, payload=bytes(80),
        )
        stray = make_udp(
            src_ip="10.0.0.2", dst_ip="203.0.113.2", sport=10_001,
            dport=20_000, payload=bytes(80),
        )
        CbrSource(
            sim,
            host,
            rate_bps=RATE_BPS,
            frame_len=template.wire_len,
            stop=stop,
            factory=lambda index, size: template.copy(),
            burst=burst_of(module, template_burst=True),
            template_burst=module.engine == "compiled",
        )
        # Stray per-frame sends interleave with the burst stream.
        for k in range(5):
            sim.schedule_at(
                (k + 1) * stop / 6,
                lambda: host.send(stray.copy()),
            )
        sim.run(until=stop + 0.2e-3)
        return registry_of(module, host, fiber), module

    reference, _ = run("reference")
    compiled, module = run("compiled")
    assert compiled == reference
    stats = compiled_stats(module.ppe)
    assert stats["bursts"] > 0
    assert stats["recipe_frames"] > 0
    # Each stray deopted the burst it landed on, and only that one.
    assert 0 < stats["deopt_frames"] <= 5 * depth, stats


def check_midrun_table_write(ingress: str) -> None:
    """A control-plane write mid-stream lands between the same packets.

    Frames whose virtual service finished before the write must be decided
    against the pre-write tables even if they are still sitting in an open
    group or a pending fused burst (two and a half bursts of the scenarios'
    depth flow; the write lands strictly inside the second, between two
    departures) — the pre-mutation drain hook (``Table._pre_mutate`` →
    ``PacketProcessingEngine._process_due``) enforces this.  The remap
    must flip the translated source address at exactly the same packet
    index in both engines.  ``ingress`` is how
    frames reach the compiled module: ``"burst"`` (template bursts),
    ``"flush"`` (multi-frame flushes) or ``"event"`` (one frame per event).
    """

    depth = source_burst("compiled", template_burst=ingress == "burst")

    def run(engine: str) -> tuple[list[str], object]:
        sim = Simulator()
        nat = StaticNat()
        nat.add_mapping("10.0.0.1", "198.51.100.1")
        module = FlexSFPModule(sim, "dut", Deployment.solo(nat), auth_key=KEY, engine=engine)
        compiled = engine == "compiled"
        host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
        fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 22)
        seen: list[str] = []
        (fiber.attach_batch if compiled else fiber.attach)(
            lambda port, pkt, size, when: seen.append(pkt.ipv4.src_ip)
        )
        cable(sim, host, module, per_event=ingress == "event")
        connect(module.line_port, fiber)
        template = make_udp(src_ip="10.0.0.1", payload=b"y" * 50)
        departure_s = frame_wire_bytes(112) * 8 / 1e8
        stop = 2.5 * depth * departure_s
        CbrSource(
            sim, host, rate_bps=1e8, frame_len=112, stop=stop,
            factory=lambda i, s: template.copy(),
            burst=depth if compiled and ingress != "event" else 1,
            template_burst=compiled and ingress == "burst",
        )
        sim.schedule_at(
            (1.5 * depth + 0.2) * departure_s,
            lambda: module.app.add_mapping("10.0.0.1", "198.51.100.99"),
        )
        sim.run(until=stop + 1e-4)
        return seen, module

    reference, _ = run("reference")
    compiled, module = run("compiled")
    assert reference == compiled
    # Two full bursts flowed and the remap took effect inside the second.
    assert depth < reference.index("198.51.100.99") < 2 * depth
    assert len(reference) > 2 * depth
    # Both translations were actually observed (the write landed mid-run)
    # and the cache both engaged and invalidated across the write.
    assert set(reference) == {"198.51.100.1", "198.51.100.99"}
    cache = module.ppe.flow_cache
    assert cache.hits > 0
    assert cache.invalidations > 0


def test_midrun_table_write_matches_reference():
    check_midrun_table_write("burst")


def test_midrun_table_write_flush_ingress_matches_reference():
    check_midrun_table_write("flush")


def test_midrun_table_write_event_ingress_matches_reference():
    check_midrun_table_write("event")


def test_metered_ratelimiter_burst_matches_reference():
    """The sequential meter lane replays token buckets bit-identically.

    The bucket flips between conform and police mid-burst, so this pins
    the property a frozen recipe could never provide: per-frame verdicts
    inside one fused slice diverge exactly where the reference engine's
    do."""

    def run(engine: str):
        sim = Simulator()
        app = create_app("ratelimiter")
        app.add_limit("10.0.0.0", 8, rate_bps=1e8, burst_bytes=4_000)
        module = FlexSFPModule(sim, "dut", Deployment.solo(app), auth_key=KEY, engine=engine)
        compiled = engine == "compiled"
        host, fiber = wire(sim, module)
        template = make_udp(
            src_ip="10.0.0.1", dst_ip="203.0.113.1", sport=10_000,
            dport=20_000, payload=bytes(80),
        )
        CbrSource(
            sim,
            host,
            rate_bps=RATE_BPS,
            frame_len=template.wire_len,
            stop=RUN_S,
            factory=lambda index, size: template.copy(),
            burst=burst_of(module, template_burst=True),
            template_burst=compiled,
        )
        sim.run(until=RUN_S + 0.2e-3)
        return results_of(module, host, fiber), module

    reference, _ = run("reference")
    compiled, module = run("compiled")
    assert compiled == reference
    counters = reference["app_counters"]
    assert counters["conformed.packets"] > 0
    assert counters["policed.packets"] > 0
    stats = compiled_stats(module.ppe)
    assert stats["bursts"] > 0, stats
    assert stats["recipe_frames"] > 0, stats


@pytest.mark.parametrize("service_vid", [None, 200])
def test_vlan_untag_direction_matches_reference(service_vid):
    """Line→edge VLAN/QinQ stripping fuses through structural-op recipes;
    matched tags pop, foreign VIDs hit the partial-pop drop path."""
    from repro.apps.vlan import VlanTagger
    from repro.core.ppe import Direction
    from repro.core.shells import ShellSpec
    from repro.packet import vlan_push

    def make_tagged(vids):
        packet = make_udp(
            src_ip="198.51.100.1", dst_ip="10.0.0.1", sport=20_000,
            dport=10_000, payload=bytes(80),
        )
        for vid, service in reversed(vids):
            vlan_push(packet, vid, service=service)
        return packet

    expected_vids = (
        [(200, True), (100, False)] if service_vid else [(100, False)]
    )
    matched = make_tagged(expected_vids)
    foreign = make_tagged(
        [(200, True), (999, False)] if service_vid else [(999, False)]
    )

    def run(engine: str):
        sim = Simulator()
        app = VlanTagger(access_vid=100, service_vid=service_vid)
        # The default shell filters edge→line only; untagging happens on
        # the way back, so filter the line→edge direction instead.
        shell = ShellSpec(filtered_direction=Direction.LINE_TO_EDGE)
        module = FlexSFPModule(
            sim, "dut", Deployment.solo(app), shell=shell, auth_key=KEY, engine=engine
        )
        compiled = engine == "compiled"
        host, fiber = wire(sim, module)
        for template in (matched, foreign):
            CbrSource(
                sim,
                fiber,
                rate_bps=RATE_BPS / 2,
                frame_len=template.wire_len,
                stop=RUN_S,
                factory=lambda index, size, t=template: t.copy(),
                burst=burst_of(module, template_burst=True),
                template_burst=compiled,
            )
        sim.run(until=RUN_S + 0.2e-3)
        return results_of(module, host, fiber), module

    reference, _ = run("reference")
    compiled, module = run("compiled")
    assert compiled == reference
    counters = reference["app_counters"]
    assert counters["untagged.packets"] > 0
    assert counters["foreign_vid.packets"] > 0
    stats = compiled_stats(module.ppe)
    assert stats["recipe_frames"] > 0, stats


# ----------------------------------------------------------------------
# One slot list, one ingress: the seams between the lanes and the boot FSM
# ----------------------------------------------------------------------
def registry_of(module, host, fiber) -> dict:
    """Every semantic metric and latency histogram the run published."""
    from repro.artifact.diff import semantic_metrics
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    module.register_metrics(registry)
    registry.register("host", host)
    registry.register("fiber", fiber)
    return {
        "metrics": semantic_metrics(registry.collect()),
        "histograms": {
            name: histogram.metric_values()
            for name, histogram in module.histogram_states().items()
        },
    }


def settled(modules: list, host, fiber, seen: list) -> dict:
    """What a ``run(until=)`` shows: :func:`registry_of` of every module and
    the frames the fiber received so far.

    Port queue gauges are left out: a burst source reserves its whole
    burst on the host port at its tick, frames the oracle's source has
    not sent yet.  Counters, histograms and deliveries are all in.
    """
    state: dict = {"metrics": {}, "histograms": {}, "seen": list(seen)}
    for module in modules:
        published = registry_of(module, host, fiber)
        state["histograms"].update(published["histograms"])
        state["metrics"].update(
            (name, value)
            for name, value in published["metrics"].items()
            if not name.endswith(".queue.bytes")
        )
    return state


def run_with_cuts(engine: str, cuts: list[float], stop: float, build) -> tuple:
    """Build a topology with ``build(sim, engine)`` (it returns ``modules,
    host, fiber, seen``), run to each cut in turn and then drain; the
    :func:`settled` state at every cut and at the end, and the modules."""
    sim = Simulator()
    modules, host, fiber, seen = build(sim, engine)
    states = []
    for cut in [*cuts, stop + 0.2e-3]:
        sim.run(until=cut)
        states.append(settled(modules, host, fiber, seen))
    return states, modules


def nat_cut_topology(
    frame_len: int, ingress: str, stop: float, write_at=None, modules: int = 1
):
    """``modules`` NATs in a row fed 10G CBR through ``ingress``:
    ``"template"`` (template bursts at the scenarios' depth, the fused
    lane), ``"per-frame"`` (bursts of per-frame packets, the grouped
    per-frame lane) or ``"event"`` (template bursts through a per-event
    hop, so the first module takes one frame per event).  The last NAT
    remaps at ``write_at``."""

    def build(sim: Simulator, engine: str):
        chain = []
        for index in range(modules):
            nat = StaticNat()
            nat.add_mapping("10.0.0.1", "198.51.100.1")
            chain.append(
                FlexSFPModule(
                    sim, f"dut{index or ''}", Deployment.solo(nat), auth_key=KEY,
                    engine=engine,
                )  # fmt: skip
            )
        host = Port(sim, "host", 10e9, queue_bytes=1 << 22)
        fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 22)
        seen: list = []
        fiber.attach_batch(
            lambda port, packet, size, when: seen.append((packet.ipv4.src_ip, when))
        )
        cable(sim, host, chain[0], per_event=ingress == "event")
        for upstream, downstream in zip(chain, chain[1:]):
            connect(upstream.line_port, downstream.edge_port)
        connect(chain[-1].line_port, fiber)
        template = make_udp(src_ip="10.0.0.1", payload=bytes(frame_len - 42))
        bursts = engine == "compiled" and ingress != "per-frame"
        CbrSource(
            sim, host, rate_bps=10e9, frame_len=frame_len, stop=stop,
            factory=lambda index, size: template.copy(),
            burst=source_burst(engine, template_burst=bursts),
            template_burst=bursts,
        )  # fmt: skip
        if write_at is not None:
            sim.schedule_at(
                write_at, lambda: chain[-1].app.add_mapping("10.0.0.1", "198.51.100.99")
            )
        return chain, host, fiber, seen

    return build


def oracle_times(build, stop: float) -> tuple[list[float], float]:
    """The oracle's PPE finish time of every frame, and its pipeline latency."""
    sim = Simulator()
    (module, *_), *_ = build(sim, "reference")
    ppe = module.ppe
    finishes: list[float] = []
    finish = ppe._finish

    def spy(*args):
        finishes.append(sim.now)
        finish(*args)

    ppe._finish = spy
    sim.run(until=stop + 0.2e-3)
    return finishes, ppe.pipeline_latency_s


def assert_every_cut_matches(cuts: list[float], stop: float, build) -> tuple:
    """Both tiers through the same cuts; the oracle's states and the
    compiled tier's lane counters."""
    reference, _ = run_with_cuts("reference", cuts, stop, build)
    compiled, modules = run_with_cuts("compiled", cuts, stop, build)
    for cut, oracle, fast in zip([*cuts, "drained"], reference, compiled):
        assert fast == oracle, f"cut at {cut}"
    return reference, compiled_stats(modules[-1].ppe)


@pytest.mark.parametrize("ingress", ["template", "per-frame", "event"])
@pytest.mark.parametrize("frame_len", [60, 1514])
def test_every_cut_inside_a_burst_matches_the_oracle(frame_len, ingress):
    """Every ``run(until=)`` settles: each counter, histogram and delivered
    frame equals the oracle's at the cut, wherever it falls in a burst.

    The cuts: three fixed and six seeded random ones across four and a
    half bursts of the scenarios' template depth; one exactly on a PPE
    finish, one on a deliver time (finish + pipeline latency) and one on
    a later finish with a NAT remap landing between two finishes of the
    same burst right after it.
    """
    depth = source_burst("compiled", template_burst=True)
    burst_s = depth * frame_wire_bytes(frame_len) * 8 / 10e9
    stop = 4.5 * burst_s
    finishes, latency = oracle_times(nat_cut_topology(frame_len, ingress, stop), stop)
    written = int(2.6 * depth)
    write_at = (finishes[written] + finishes[written + 1]) / 2
    rng = random.Random(frame_len)
    cuts = sorted(
        [0.4 * burst_s, 1.7 * burst_s, 3.2 * burst_s]
        + [rng.uniform(0, stop) for _ in range(6)]
        + [finishes[depth // 3], finishes[depth + 7] + latency, finishes[written - 5]]
    )
    reference, stats = assert_every_cut_matches(
        cuts, stop, nat_cut_topology(frame_len, ingress, stop, write_at)
    )
    assert (stats["recipe_frames"] > 0) == (ingress == "template"), stats
    final = reference[-1]
    assert final["metrics"]["fiber.rx.packets"] > 4 * depth
    # The remap took effect inside the third burst, after the cut before it.
    translated = [src for src, _when in final["seen"]]
    assert translated.index("198.51.100.99") == written + 1
    # Some cut found frames received but not yet delivered.
    assert any(
        state["metrics"]["fiber.rx.packets"] < state["metrics"]["dut.edge.rx.packets"]
        for state in reference[:-1]
    )


@pytest.mark.parametrize("lane", ["meter", "deopt"])
def test_cuts_match_the_oracle_on_the_meter_and_deopt_lanes(lane):
    """The meter lane (a token bucket flipping between conform and police
    inside a burst) and the deopt door (a flow whose ``process`` reads the
    clock: admitted to the recipe lane, the recorder refuses it at the
    drain, a cut's included) settle at every cut as the recipe lane does."""
    stop = RUN_S

    def build(sim: Simulator, engine: str):
        if lane == "meter":
            app = create_app("ratelimiter")
            app.add_limit("10.0.0.0", 8, rate_bps=1e8, burst_bytes=4_000)
        else:
            app = OddNat("opt-out")
        module = FlexSFPModule(sim, "dut", Deployment.solo(app), auth_key=KEY, engine=engine)
        host, fiber = wire(sim, module)
        seen: list = []
        fiber.attach_batch(lambda port, packet, size, when: seen.append(when))
        template = make_udp(
            src_ip="10.0.0.1" if lane == "meter" else ODD_SRC, dst_ip="203.0.113.1",
            sport=10_000, dport=20_000, payload=bytes(80),
        )  # fmt: skip
        compiled = engine == "compiled"
        CbrSource(
            sim, host, rate_bps=RATE_BPS, frame_len=template.wire_len, stop=stop,
            factory=lambda index, size: template.copy(),
            burst=source_burst(engine, template_burst=compiled),
            template_burst=compiled,
        )  # fmt: skip
        return [module], host, fiber, seen

    rng = random.Random(SEED)
    cuts = sorted(rng.uniform(0, stop) for _ in range(9))
    reference, stats = assert_every_cut_matches(cuts, stop, build)
    counters = reference[-1]["metrics"]
    assert stats["bursts"] > 0, stats
    assert (stats["deopt_frames"] > 0) == (lane == "deopt"), stats
    if lane == "meter":
        # Conformed frames pass, policed ones drop.
        assert counters["dut.ppe.ratelimiter.verdicts.pass"] > 0
        assert counters["dut.ppe.ratelimiter.verdicts.drop"] > 0
    else:
        assert counters["dut.ppe.nat.processed.packets"] > 1000


def test_cuts_settle_through_a_two_module_chain():
    """A cut that hands the first module's frames over makes the second
    one's due: the settle repeats until nothing is due, and both modules
    and the fiber match the oracle at every cut."""
    depth = source_burst("compiled", template_burst=True)
    stop = 4.5 * depth * frame_wire_bytes(60) * 8 / 10e9
    rng = random.Random(SEED)
    cuts = sorted(rng.uniform(0, stop) for _ in range(9))
    build = nat_cut_topology(60, "template", stop, modules=2)
    reference, stats = assert_every_cut_matches(cuts, stop, build)
    assert stats["recipe_frames"] > 0, stats
    assert reference[-1]["metrics"]["dut1.ppe.nat.processed.packets"] > 4 * depth


def test_cuts_match_the_oracle_on_nfv_chain_up_to_the_shared_egress():
    """``nfv-chain``'s tenant mix at line rate, cut nine times: host, edge,
    crossbar and every slot's counters and histograms equal the oracle's
    at each cut.

    The shared line port is compared once drained only.  Two slots
    reserve on it out of arrival order (ROADMAP item 3), so at a cut the
    compiled tier's line port has serialized fewer frames than the
    oracle's; the settle is not what trails (the slots' own counters
    match).
    """
    from repro.nfv import NFV_SCRUB_DPORT, default_nfv_tenants

    stop = 0.3e-3
    payload = bytes(18)
    templates = (
        make_udp(src_ip="10.0.0.1", dport=NFV_SCRUB_DPORT, payload=payload),
        make_udp(src_ip="10.0.0.2", payload=payload),
        make_udp(src_ip="127.0.0.1", dport=NFV_SCRUB_DPORT, payload=payload),
        make_udp(src_ip="10.0.0.1", dport=NFV_SCRUB_DPORT, payload=payload),
        make_udp(src_ip="10.0.0.2", payload=payload),
    )

    def build(sim: Simulator, engine: str):
        deployment = Deployment.from_dicts(default_nfv_tenants())
        module = FlexSFPModule(sim, "dut", deployment, auth_key=KEY, engine=engine)
        host, fiber = wire(sim, module)
        CbrSource(
            sim, host, rate_bps=10e9, frame_len=60, stop=stop,
            factory=lambda index, size: templates[index % len(templates)].copy(),
            burst=source_burst(engine),
        )  # fmt: skip
        return [module], host, fiber, []

    def upstream_of_the_line_port(state: dict) -> dict:
        state["metrics"] = {
            name: value
            for name, value in state["metrics"].items()
            if not name.startswith(("dut.line.", "fiber."))
        }
        return state

    rng = random.Random(SEED)
    cuts = sorted(rng.uniform(0, stop) for _ in range(9))
    reference, _ = run_with_cuts("reference", cuts, stop, build)
    compiled, _ = run_with_cuts("compiled", cuts, stop, build)
    assert compiled[-1] == reference[-1]
    for cut, oracle, fast in zip(cuts, reference, compiled):
        assert upstream_of_the_line_port(fast) == upstream_of_the_line_port(oracle), cut
    metrics = reference[-1]["metrics"]
    assert metrics["dut.tenant.scrub.ppe.sanitizer.processed.packets"] > 1000
    assert metrics["dut.tenant.telemetry.ppe.int.processed.packets"] > 1000


def test_template_burst_into_two_tenants_expands_at_the_module():
    """A template burst reaching a module with more than one slot expands
    to per-frame copies at the module boundary and is steered frame by
    frame: no slot ever sees a burst, and both tiers agree on everything."""
    from repro.nfv import NFV_SCRUB_DPORT, default_nfv_tenants

    def run(engine: str):
        sim = Simulator()
        deployment = Deployment.from_dicts(default_nfv_tenants())
        module = FlexSFPModule(sim, "dut", deployment, auth_key=KEY, engine=engine)
        host, fiber = wire(sim, module)
        for dport in (NFV_SCRUB_DPORT, 53):
            template = make_udp(
                src_ip="10.0.0.1", dst_ip="203.0.113.1", sport=10_000,
                dport=dport, payload=bytes(80),
            )
            CbrSource(
                sim,
                host,
                rate_bps=RATE_BPS / 2,
                frame_len=template.wire_len,
                stop=RUN_S,
                factory=lambda index, size, t=template: t.copy(),
                burst=burst_of(module, template_burst=True),
                template_burst=module.engine == "compiled",
            )
        sim.run(until=RUN_S + 0.2e-3)
        return registry_of(module, host, fiber), module

    reference, _ = run("reference")
    compiled, module = run("compiled")
    assert compiled == reference
    metrics = compiled["metrics"]
    steered = [slot_steered.packets for slot_steered in module.crossbar.steered]
    assert all(count > 50 for count in steered), steered
    assert sum(steered) == metrics["dut.edge.rx.packets"]
    for slot in module.slots:
        stats = compiled_stats(slot.ppe)
        assert stats["bursts"] == 0 and stats["recipe_frames"] == 0, stats
        assert slot.ppe.processed.packets == steered[slot.index]


def test_solo_reboot_under_coalesced_batch_ingress_matches_reference():
    """A whole-module reboot that swaps the application, crossed by
    multi-frame coalesced flushes before, inside and across the end of the
    dark window: the one boot routine and the module's window agree on
    both tiers, frame by frame at the up edge.

    Only the down edge is kept clear by more than one flush: a reboot is
    not announced, so a flush that hands frames over before it judges
    them up (the one edge the window rule leaves).
    """
    from repro.core import RECONFIG_DOWNTIME_S
    from repro.core.shells import ShellSpec
    from repro.hls import compile_app

    reboot_at = 1e-3
    back_at = reboot_at + RECONFIG_DOWNTIME_S
    phases = ((0.0, 0.5e-3), (2e-3, 2.5e-3), (back_at - 0.5e-3, back_at + 0.5e-3))

    def run(engine: str):
        sim = Simulator()
        module, host, fiber = build_module(sim, "nat", engine)
        image = compile_app(create_app("firewall"), ShellSpec()).bitstream
        module.load_via_jtag(image, slot=1)
        module.flash.select_boot(1)
        sim.schedule_at(reboot_at, module.reboot)
        for index, (start, stop) in enumerate(phases):
            ImixSource(
                sim,
                host,
                rate_bps=RATE_BPS,
                start=start,
                stop=stop,
                factory=make_imix_factory(SEED + index),
                seed=SEED + index,
                burst=burst_of(module),
            )
        sim.run(until=back_at + 1.5e-3)
        return registry_of(module, host, fiber), module

    reference, _ = run("reference")
    compiled, module = run("compiled")
    assert compiled == reference
    metrics = compiled["metrics"]
    assert module.app.name == "firewall" and module.reboots == 1
    assert metrics["dut.downtime_drops.packets"] > 50
    assert metrics["dut.ppe.firewall.processed.packets"] > 50
    assert metrics["fiber.rx.packets"] > metrics["dut.ppe.firewall.processed.packets"]


def test_template_bursts_across_the_end_of_a_reboot_window_match_reference():
    """Same-flow template bursts into a rebooting module: a burst wholly
    inside the dark window is counted in one step, the burst straddling
    its end expands to per-frame ingress (each frame judged at its own
    ``when``), and the burst after it fuses again; every semantic leaf
    equals the reference tier's.  The stream spans three bursts of the
    scenarios' depth, the window's end halfway through the second."""
    from repro.core import RECONFIG_DOWNTIME_S

    reboot_at = 0.1e-3
    back_at = reboot_at + RECONFIG_DOWNTIME_S
    template = make_udp(src_ip="10.0.0.1", dst_ip="203.0.113.1", payload=bytes(80))
    depth = source_burst("compiled", template_burst=True)
    burst_s = depth * frame_wire_bytes(template.wire_len) * 8 / RATE_BPS

    def run(engine: str):
        sim = Simulator()
        module, host, fiber = build_module(sim, "nat", engine)
        sim.schedule_at(reboot_at, module.reboot)
        CbrSource(
            sim,
            host,
            rate_bps=RATE_BPS,
            frame_len=template.wire_len,
            start=back_at - 1.5 * burst_s,
            stop=back_at + 1.5 * burst_s,
            factory=lambda index, size: template.copy(),
            burst=burst_of(module, template_burst=True),
            template_burst=module.engine == "compiled",
        )
        sim.run(until=back_at + 1.5 * burst_s + 0.3e-3)
        return registry_of(module, host, fiber), module

    reference, _ = run("reference")
    compiled, module = run("compiled")
    assert compiled == reference
    metrics = compiled["metrics"]
    assert metrics["dut.downtime_drops.packets"] > BURST_FRAMES
    assert metrics["dut.ppe.nat.processed.packets"] > BURST_FRAMES
    assert compiled_stats(module.ppe)["bursts"] > 0


def test_a_reboot_swapped_engine_leaves_no_cut_hook_behind():
    """The compiled engine's cut hook lives as long as the engine: once a
    reboot has swapped it out and its last frames are delivered, the
    simulator settles only the engine that runs."""
    import gc
    import weakref

    from repro.core.shells import ShellSpec
    from repro.hls import compile_app

    sim = Simulator()
    module, host, fiber = build_module(sim, "nat", "compiled")
    module.load_via_jtag(compile_app(create_app("firewall"), ShellSpec()).bitstream, slot=1)
    module.flash.select_boot(1)
    template = make_udp(src_ip="10.0.0.1", payload=bytes(80))
    CbrSource(
        sim, host, rate_bps=RATE_BPS, frame_len=template.wire_len, stop=RUN_S,
        factory=lambda index, size: template.copy(),
        burst=burst_of(module, template_burst=True), template_burst=True,
    )  # fmt: skip
    swapped = weakref.ref(module.ppe)
    processed = module.ppe.processed
    sim.schedule_at(RUN_S / 2, module.reboot)
    sim.run(until=RUN_S + 0.2e-3)
    assert module.app.name == "firewall" and processed.packets > 0
    gc.collect()
    sim.run(until=RUN_S + 0.3e-3)
    assert swapped() is None
    assert len(sim._cut_hooks) == 1


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_views_and_tracer_follow_a_reboot_that_swaps_the_application(engine):
    """``module.ppe`` / ``module.app`` are views of the first slot, before
    and after a reboot swaps both; an attached tracer survives the swap on
    a solo module and on every slot of a multi-tenant one."""
    from repro.core import RECONFIG_DOWNTIME_S
    from repro.core.shells import ShellSpec
    from repro.hls import compile_app
    from repro.nfv import default_nfv_tenants
    from repro.obs.trace import Tracer

    sim = Simulator()
    solo, host, fiber = build_module(sim, "nat", engine)
    multi = FlexSFPModule(
        sim,
        "nfv",
        Deployment.from_dicts(default_nfv_tenants()),
        auth_key=KEY,
        engine=engine,
    )
    tracers = {}
    for module in (solo, multi):
        tracers[module.name] = tracer = Tracer(limit=4)
        module.attach_tracer(tracer)
        assert module.ppe is module.slots[0].ppe
        assert module.app is module.slots[0].app
    before = solo.ppe, solo.app
    image = compile_app(create_app("firewall"), ShellSpec()).bitstream
    solo.load_via_jtag(image, slot=1)
    solo.flash.select_boot(1)
    solo.reboot()
    multi.reconfigure_tenant("scrub", create_app("passthrough"))
    multi.reboot()
    sim.run(until=2 * RECONFIG_DOWNTIME_S)
    assert solo.app.name == "firewall"
    assert solo.ppe is not before[0] and solo.app is not before[1]
    assert multi.tenant_slot("scrub").app.name == "passthrough"
    for module in (solo, multi):
        assert module.ppe is module.slots[0].ppe
        assert module.app is module.slots[0].app
        for slot in module.slots:
            assert slot.ppe.tracer is tracers[module.name]
    # The swapped-in engine still reports spans through the same tracer.
    host.send(make_udp(src_ip="10.0.0.1"))
    sim.run(until=sim.now + 1e-3)
    assert "ppe" in tracers["dut"].stages(0)


# ----------------------------------------------------------------------
# The burst lane is an optimisation of the per-frame lane: every way out
# of it, driven on purpose
# ----------------------------------------------------------------------
ODD_SRC = "10.0.0.9"


class OddNat(StaticNat):
    """StaticNat whose handling of one source leaves the fused contract:
    its recipe reflects, punts to the CPU, or (``opt-out``) its
    ``process`` reads the arrival clock, so the recorder refuses it."""

    def __init__(self, odd: str) -> None:
        super().__init__()
        self.odd = odd
        self.add_mapping("10.0.0.1", "198.51.100.1")
        self.add_mapping(ODD_SRC, "198.51.100.9")

    def process(self, packet, ctx):
        if packet.ipv4.src != ip_to_int(ODD_SRC):
            return super().process(packet, ctx)
        if self.odd == "opt-out":
            if ctx.time_ns >= 0:
                return super().process(packet, ctx)
        self.counter("odd").count(packet.wire_len)
        return Verdict.REFLECT if self.odd == "reflect" else Verdict.TO_CPU


class StampingNat(StaticNat):
    """StaticNat that stamps the low 16 bits of its clock into every
    translated frame's IPv4 identification: no flow has one recipe."""

    def __init__(self) -> None:
        super().__init__()
        self.add_mapping("10.0.0.1", "198.51.100.1")

    def process(self, packet, ctx):
        verdict = super().process(packet, ctx)
        packet.ipv4.identification = ctx.time_ns & 0xFFFF
        return verdict


def run_template_bursts(make_app, engine: str, src_ips=("10.0.0.1", ODD_SRC)):
    """One template-burst CBR stream per source through a solo module.

    ``result["delivered"]`` is the bytes of every frame the fiber
    received, sorted: the compiled tier's shared egress does not keep two
    flows' frames in the oracle's order once one flow deopts.
    """
    sim = Simulator()
    module = FlexSFPModule(
        sim, "dut", Deployment.solo(make_app()), auth_key=KEY, engine=engine
    )
    host, fiber = wire(sim, module)
    delivered: list[bytes] = []
    (fiber.attach_batch if engine == "compiled" else fiber.attach)(
        lambda port, packet, size, when: delivered.append(packet.to_bytes())
    )
    for src in src_ips:
        template = make_udp(
            src_ip=src, dst_ip="203.0.113.1", sport=10_000, dport=20_000,
            payload=bytes(80),
        )
        CbrSource(
            sim,
            host,
            rate_bps=RATE_BPS / len(src_ips),
            frame_len=template.wire_len,
            stop=RUN_S,
            factory=lambda index, size, t=template: t.copy(),
            burst=burst_of(module, template_burst=True),
            template_burst=module.engine == "compiled",
        )
    sim.run(until=RUN_S + 0.2e-3)
    result = registry_of(module, host, fiber)
    result["punted"] = len(module.punted_to_cpu)
    result["delivered"] = sorted(delivered)
    return result, module


@pytest.mark.parametrize("odd", ["reflect", "to-cpu", "opt-out"])
def test_fused_flow_leaving_the_contract_deopts_at_drain(odd):
    """A burst admitted to the recipe lane whose recipe turns out REFLECT
    or TO_CPU, or whose ``process`` the recorder refuses, materialises at
    drain time and takes the per-frame lane with exact queue depths; the
    well-behaved flow next to it keeps fusing whenever its bursts drain
    alone."""
    reference, _ = run_template_bursts(lambda: OddNat(odd), "reference")
    compiled, module = run_template_bursts(lambda: OddNat(odd), "compiled")
    assert compiled == reference
    stats = compiled_stats(module.ppe)
    assert stats["bursts"] > 0 and stats["deopt_frames"] > 0, stats
    metrics = compiled["metrics"]
    if odd == "reflect":
        assert metrics["host.rx.packets"] > 50
    elif odd == "to-cpu":
        assert compiled["punted"] > 50
    else:
        assert metrics["dut.ppe.nat.verdicts.pass"] == metrics["fiber.rx.packets"]


def test_time_stamping_flow_keeps_its_stamp_on_the_compiled_tier():
    """A ``process`` that stamps its clock into a header keeps the pure
    proof (the pipeline IR is StaticNat's), so its bursts enter the
    recipe lane; the recorder refuses the clock read, every frame deopts
    to per-frame ``process`` and carries its own stamp, byte for byte."""
    reference, _ = run_template_bursts(StampingNat, "reference", ("10.0.0.1",))
    compiled, module = run_template_bursts(StampingNat, "compiled", ("10.0.0.1",))
    assert compiled["delivered"] == reference["delivered"]
    assert compiled == reference
    stamps = {frame[18:20] for frame in reference["delivered"]}
    assert len(stamps) > 1, stamps
    stats = compiled_stats(module.ppe)
    assert stats["bursts"] > 0 and stats["recipe_frames"] == 0, stats
    assert stats["deopt_frames"] == compiled["metrics"]["dut.ppe.nat.processed.packets"]


def test_meter_flow_without_a_plan_deopts_at_drain():
    """A meter-lane burst whose ``burst_plan`` returns None replays through
    per-frame ``process`` — same buckets, same flips — and never fuses."""
    from repro.apps.ratelimiter import RateLimiter

    class PlanlessLimiter(RateLimiter):
        def burst_plan(self, template, direction):
            return None

    def make_app():
        app = PlanlessLimiter()
        app.add_limit("10.0.0.0", 8, rate_bps=1e8, burst_bytes=4_000)
        return app

    reference, _ = run_template_bursts(make_app, "reference", ("10.0.0.1",))
    compiled, module = run_template_bursts(make_app, "compiled", ("10.0.0.1",))
    assert compiled == reference
    assert module.program.mode == "meter"
    stats = compiled_stats(module.ppe)
    assert stats["bursts"] > 0 and stats["recipe_frames"] == 0, stats
    assert stats["deopt_frames"] == compiled["metrics"]["dut.ppe.ratelimiter.processed.packets"]
    counters = module.app.metric_values()
    assert counters["conformed.packets"] > 0 and counters["policed.packets"] > 0


def run_engine_script(
    engine: str, script, queue_bytes: int = 32 * 1024, variant: str | None = None
):
    """Drive one engine directly with ``("frame", at, src)``, ``("burst",
    times, src)`` and ``("write", at, src)`` (a control-plane table write)
    steps; returns every completion in order.

    The oracle gets each frame as its own event at its arrival time.  The
    fast engine gets what a coalesced flush would hand it: each step at
    the event time of its first arrival, later arrivals future-dated.
    ``variant`` builds the fast engine short of something a fused lane
    needs (``no-program``, ``no-flow-cache``) or with a ``tracer``; a
    ``src`` of ``"v6"`` sends IPv6 frames, a flow the NAT opts out of.
    """
    from repro.core import PacketProcessingEngine, ReferenceEngine
    from repro.core.flowcache import FlowCache
    from repro.core.ppe import Direction
    from repro.core.shells import ShellSpec
    from repro.hls.compiler import compile_app
    from repro.hls.executor import compile_executor

    sim = Simulator()
    app = StaticNat()
    app.add_mapping("10.0.0.1", "198.51.100.1")
    app.add_mapping("10.0.0.2", "198.51.100.2")
    build = compile_app(app, ShellSpec())
    timing, depth = build.report.timing, build.spec.pipeline_depth
    if engine == "compiled":
        ppe = PacketProcessingEngine(
            sim, app, timing, depth, queue_bytes=queue_bytes,
            flow_cache=None if variant == "no-flow-cache" else FlowCache(64),
            program=None if variant == "no-program" else compile_executor(app, ShellSpec()),
        )
    else:
        ppe = ReferenceEngine(sim, app, timing, depth, queue_bytes=queue_bytes)
    if variant == "tracer":
        from repro.obs.trace import Tracer

        ppe.tracer = Tracer(limit=0)
    done: list[tuple] = []

    def src_of(packet):
        return packet.ipv4.src if packet.ipv4 is not None else packet.ipv6.src

    def done_frame(packet, verdict, emitted, size, deliver_s):
        done.append((src_of(packet), verdict, len(emitted), deliver_s))

    def done_burst(packet, verdict, size, deliver_s):
        done.extend((src_of(packet), verdict, 0, at) for at in deliver_s.tolist())

    direction = Direction.EDGE_TO_LINE
    for kind, when, src in script:
        if src == "v6":
            template = make_udp6(payload=bytes(60))
        else:
            template = make_udp(src_ip=src, payload=bytes(80))
        size = template.wire_len
        if kind == "write":
            sim.schedule_at(when, app.add_mapping, src, "198.51.100.3")
        elif engine == "reference":
            for at in [when] if kind == "frame" else when.tolist():
                sim.schedule_at(
                    at,
                    lambda t=template, at=at, n=size: ppe.submit(
                        t.copy(), direction, done_frame, at, n
                    ),
                )
        elif kind == "frame":
            sim.schedule_at(
                when,
                lambda t=template, at=when: ppe.submit(
                    t.copy(), direction, done_frame, at_s=at, size=size
                ),
            )
        else:
            sim.schedule_at(
                float(when[0]),
                lambda t=template, times=when: ppe.submit_burst(
                    t, size, direction, times, done_burst, done_frame
                ),
            )
    sim.run()
    return {
        "done": done,
        "processed": ppe.processed.metric_values(),
        "overload_drops": ppe.overload_drops.metric_values(),
        "verdicts": {v.value: n for v, n in ppe.verdict_counts.items()},
        "latency_ns": ppe.latency_ns.metric_values(),
        "app_counters": app.metric_values(),
    }, ppe


# A 122 B frame arrives every 117 ns at 10 Gb/s and is served in ~100 ns.
WIRE_S = 117e-9


def paced(n: int, start: float, gap: float = WIRE_S):
    return start + gap * np.arange(n)


HALF = BURST_FRAMES // 2

ENGINE_SCRIPTS = {
    # A per-frame arrival still queued when the burst shows up: the burst
    # deopts at submit, on top of the pending arrival.
    "burst-onto-pending-frame": [
        ("frame", 1e-6, "10.0.0.2"),
        ("burst", paced(16, 1e-6 + 20e-9), "10.0.0.1"),
    ],
    # A per-frame arrival right behind a burst that has not drained yet:
    # contact deopt, then a clean burst fuses again.
    "frame-onto-pending-burst": [
        ("burst", paced(16, 1e-6), "10.0.0.1"),
        ("frame", 1e-6 + 15 * WIRE_S + 50e-9, "10.0.0.2"),
        ("burst", paced(16, 10e-6), "10.0.0.1"),
    ],
    # The same, after a table write mid-burst made the engine drain (and
    # fuse) the due half: only the undrained half materialises.
    "frame-onto-half-drained-burst": [
        ("burst", paced(16, 1e-6), "10.0.0.1"),
        ("write", 1e-6 + 8 * WIRE_S, "10.0.0.3"),
        ("frame", 1e-6 + 15 * WIRE_S + 50e-9, "10.0.0.2"),
    ],
    # Three half-depth bursts arriving faster than they are served, deopted
    # together: groups still close every BURST_FRAMES (the first two bursts
    # make one, the third stays in the open group).
    "frame-onto-three-pending-bursts": [
        ("burst", paced(HALF, 1e-6, gap=60e-9), "10.0.0.1"),
        ("burst", paced(HALF, 1e-6 + HALF * 60e-9, gap=60e-9), "10.0.0.1"),
        ("burst", paced(HALF, 1e-6 + 2 * HALF * 60e-9, gap=60e-9), "10.0.0.1"),
        ("frame", 1e-6 + 3 * HALF * 60e-9, "10.0.0.2"),
    ],
}


@pytest.mark.parametrize("name", sorted(ENGINE_SCRIPTS))
def test_engine_level_deopts_match_the_oracle(name):
    reference, _ = run_engine_script("reference", ENGINE_SCRIPTS[name])
    compiled, ppe = run_engine_script("compiled", ENGINE_SCRIPTS[name])
    assert compiled == reference
    offered = sum(
        {"frame": 1, "write": 0}.get(kind, np.size(when))
        for kind, when, _src in ENGINE_SCRIPTS[name]
    )
    assert len(reference["done"]) == offered
    # Every burst frame either fused or deopted; the strays did neither.
    assert ppe.compiled_frames + ppe.compiled_deopts == offered - 1
    assert (ppe.compiled_frames, ppe.compiled_deopts) == {
        "burst-onto-pending-frame": (0, 16),
        "frame-onto-pending-burst": (16, 16),  # the clean burst fused
        "frame-onto-half-drained-burst": (8, 8),
        "frame-onto-three-pending-bursts": (0, 3 * HALF),
    }[name]


@pytest.mark.parametrize(
    "variant", ["no-program", "no-flow-cache", "tracer", "flow-opt-out"]
)
def test_burst_no_lane_takes_deopts_at_submit(variant):
    """``_burst_lane`` says no for each reason it knows; the burst is still
    admitted through the kernel and served frame by frame, as the oracle."""
    src = "v6" if variant == "flow-opt-out" else "10.0.0.1"
    script = [("burst", paced(16, 1e-6), src), ("burst", paced(16, 4e-6), src)]
    reference, _ = run_engine_script("reference", script, variant=variant)
    compiled, ppe = run_engine_script("compiled", script, variant=variant)
    assert compiled == reference
    assert len(reference["done"]) == 32
    assert (ppe.compiled_bursts, ppe.compiled_frames, ppe.compiled_deopts) == (0, 0, 32)


def test_burst_that_does_not_fit_at_all_is_dropped_whole():
    script = [("burst", paced(16, 1e-6), "10.0.0.1")]
    reference, _ = run_engine_script("reference", script, queue_bytes=100)
    compiled, ppe = run_engine_script("compiled", script, queue_bytes=100)
    assert compiled == reference
    assert reference["overload_drops"]["packets"] == 16 and not reference["done"]
    assert (ppe.compiled_bursts, ppe.compiled_frames, ppe.compiled_deopts) == (0, 0, 0)


def test_empty_burst_is_a_no_op():
    """Like ``Port.send_burst``: nothing offered, nothing admitted, no event."""
    from repro.core.ppe import Direction

    _, ppe = run_engine_script("compiled", [])
    template = make_udp(src_ip="10.0.0.1", payload=bytes(80))
    admitted = ppe.submit_burst(
        template, template.wire_len, Direction.EDGE_TO_LINE, np.array([]), None, None
    )
    assert admitted == 0 and ppe.sim.pending() == 0
    assert ppe.overload_drops.packets == 0
    assert (ppe.compiled_bursts, ppe.compiled_frames, ppe.compiled_deopts) == (0, 0, 0)


@pytest.mark.parametrize("deopt", [False, True])
def test_burst_larger_than_the_queue_tail_drops_mid_burst(deopt):
    """64 frames offered at four times the service rate into a 1 kB queue:
    the engine admits, drops and serves exactly the frames the oracle does,
    whether the admitted ones then fuse or (a frame already pending) deopt."""
    script = [("burst", paced(64, 1e-6, gap=25e-9), "10.0.0.1")]
    if deopt:
        script.insert(0, ("frame", 1e-6 - 10e-9, "10.0.0.2"))
    reference, _ = run_engine_script("reference", script, queue_bytes=1024)
    compiled, ppe = run_engine_script("compiled", script, queue_bytes=1024)
    assert compiled == reference
    dropped = reference["overload_drops"]["packets"]
    assert 0 < dropped < 64
    if deopt:
        assert ppe.compiled_frames == 0 and ppe.compiled_deopts == 64 - dropped
    else:
        assert ppe.compiled_frames == 64 - dropped and ppe.compiled_deopts == 0
