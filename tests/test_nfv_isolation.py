"""Tenant isolation: faults and steering stay confined to one slot.

Two families of guarantees:

* *Fault isolation* — a rotten image (staging and/or golden) in one
  tenant's slot degrades only that tenant; the other tenant's entire
  metric subtree is byte-identical to a fault-free run.
* *Steering partition* — the crossbar is a total, single-valued,
  first-match function: every frame lands in exactly one slot, checked
  property-style over arbitrary rule sets and frames.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.apps import Passthrough
from repro.core import FlexSFPModule, RECONFIG_DOWNTIME_S
from repro.nfv import (
    NFV_SCRUB_DPORT,
    Crossbar,
    Deployment,
    SteeringMatch,
    TenantSpec,
    default_nfv_tenants,
)
from repro.obs import MetricsRegistry
from repro.packet import make_udp
from repro.sim import Port, Simulator, connect

KEY = b"nfv-isolation-test-key"


class _RottenBitstream:
    """A bitstream whose stored bytes fail the boot-time CRC check."""

    def __init__(self, inner):
        self._inner = inner
        self.app_name = inner.app_name

    def to_bytes(self):
        raw = bytearray(self._inner.to_bytes())
        raw[100] ^= 0xFF
        return bytes(raw)


def _run_stream(fault: bool) -> dict:
    """One deterministic multi-tenant run; optionally rot the scrub slot."""
    sim = Simulator()
    module = FlexSFPModule(
        sim, "m", Deployment.from_dicts(default_nfv_tenants()), auth_key=KEY
    )
    host = Port(sim, "host", 10e9)
    fiber = Port(sim, "fiber", 10e9)
    fiber.attach(lambda p, pkt, size, when: None)
    connect(host, module.edge_port)
    connect(module.line_port, fiber)

    if fault:
        scrub = module.tenant_slot("scrub")
        scrub.flash.corrupt_bits(0, nbits=16, seed=5)  # golden rots
        golden = scrub.build.bitstream
        sim.schedule_at(
            1e-3,
            module.reconfigure_tenant,
            "scrub",
            None,
            _RottenBitstream(golden),
        )

    # Two bursts: one across the reconfiguration window, one after the
    # slot has settled (degraded or back up), so both phases see frames.
    for start in (0.0, 1e-3 + RECONFIG_DOWNTIME_S + 1e-3):
        for index in range(40):
            when = start + index * 0.1e-3
            frame = (
                make_udp(dport=NFV_SCRUB_DPORT)
                if index % 2 == 0
                else make_udp(dport=53)
            )
            sim.schedule_at(when, host.send, frame)
    sim.run(until=2 * RECONFIG_DOWNTIME_S)

    registry = MetricsRegistry()
    module.register_metrics(registry)
    metrics = registry.collect()
    return {
        "module": module,
        "metrics": metrics,
        "telemetry": {
            key: value
            for key, value in metrics.items()
            if key.startswith("m.tenant.telemetry.")
        },
    }


class TestFaultIsolation:
    def test_rotten_slot_degrades_only_its_tenant(self):
        run = _run_stream(fault=True)
        module = run["module"]
        scrub = module.tenant_slot("scrub")
        telemetry = module.tenant_slot("telemetry")
        # Staging failed its CRC and the golden image had rotted too:
        # the scrub slot degraded to pass-through wire.
        assert scrub.degraded
        assert scrub.failed_boots == 2
        assert scrub.degraded_forwarded.packets > 0
        # The neighbour slot never noticed.
        assert not telemetry.degraded
        assert telemetry.failed_boots == 0
        assert module.sim.now not in telemetry.dark

    def test_survivor_subtree_byte_identical(self):
        clean = _run_stream(fault=False)
        faulty = _run_stream(fault=True)
        # The fault changed the scrub subtree...
        assert (
            faulty["metrics"]["m.tenant.scrub.degraded"]
            != clean["metrics"]["m.tenant.scrub.degraded"]
        )
        # ...and left the telemetry subtree byte-identical.
        assert json.dumps(faulty["telemetry"], sort_keys=True) == json.dumps(
            clean["telemetry"], sort_keys=True
        )


# --------------------------------------------------------------------------
# Crossbar partition property
# --------------------------------------------------------------------------

_dports = st.one_of(st.none(), st.integers(0, 0xFFFF))
_prefixes = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 32)),
)


def _matches(draw_dport, draw_prefix):
    if draw_prefix is None:
        return SteeringMatch(udp_dport=draw_dport)
    value, length = draw_prefix
    ip = ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))
    return SteeringMatch(udp_dport=draw_dport, dst_ip=ip, prefix_len=length)


_rules = st.builds(_matches, _dports, _prefixes)


@st.composite
def _deployments(draw):
    scoped = draw(st.lists(_rules, max_size=4))
    tenants = [
        TenantSpec(name=f"t{i}", app="passthrough", match=match, share=0.1)
        for i, match in enumerate(scoped)
    ]
    tenants.append(TenantSpec(name="catchall", app="passthrough", share=0.1))
    return Deployment(tuple(tenants))


@st.composite
def _frames(draw):
    if draw(st.booleans()):
        frame = make_udp(
            dst_ip=".".join(
                str(draw(st.integers(0, 255))) for _ in range(4)
            ),
            dport=draw(st.integers(0, 0xFFFF)),
        )
    else:
        frame = make_udp()
        frame.headers = frame.headers[:1]  # non-IP frame
    return frame


@given(deployment=_deployments(), frame=_frames())
def test_crossbar_partitions_every_frame_to_exactly_one_tenant(
    deployment, frame
):
    """Steering is total, single-valued, and first-match-wins."""
    crossbar = Crossbar("xbar", deployment.tenants)
    index = crossbar.select(frame)
    claims = [
        i
        for i, spec in enumerate(deployment.tenants)
        if spec.match.matches(frame)
    ]
    # Total: the catch-all guarantees at least one claimant...
    assert claims
    # ...and the crossbar picks exactly the first.
    assert index == claims[0]
    # Counting happens in exactly one slot.
    before = [counter.packets for counter in crossbar.steered]
    crossbar.steer(frame, 64)
    after = [counter.packets for counter in crossbar.steered]
    bumps = [b - a for a, b in zip(before, after)]
    assert sum(bumps) == 1
    assert bumps[index] == 1


@given(deployment=_deployments())
def test_wildcard_catchall_claims_non_ip(deployment):
    frame = make_udp()
    frame.headers = frame.headers[:1]
    crossbar = Crossbar("xbar", deployment.tenants)
    selected = deployment.tenants[crossbar.select(frame)]
    # Non-IP frames can only match wildcard rules, and first-match-wins
    # lands them on the earliest wildcard tenant.
    assert selected.match.is_wildcard
    first_wildcard = next(
        spec for spec in deployment.tenants if spec.match.is_wildcard
    )
    assert selected is first_wildcard
