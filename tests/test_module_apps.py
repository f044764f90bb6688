"""Module-level integration matrix: every registered app, deployed.

The per-app unit tests call ``process`` directly; these run each
application inside a full :class:`FlexSFPModule` (build flow included)
with representative traffic, asserting deployment-level behaviour.
"""

import math

import pytest

from repro import apps
from repro.apps import APP_FACTORIES, Passthrough, TunnelRoute, create_app
from repro.core import FlexSFPModule, ShellKind, ShellSpec
from repro.errors import ConfigError
from repro.packet import (
    GRE,
    IPv4,
    Packet,
    UDPPort,
    VLAN,
    make_dns_query,
    make_tcp,
    make_udp,
    make_udp6,
)
from repro.sim import Port, connect
from repro.nfv import Deployment

KEY = b"matrix-key"


def deploy(sim, app, shell_kind=ShellKind.ONE_WAY_FILTER):
    module = FlexSFPModule(
        sim, "dut", Deployment.solo(app), shell=ShellSpec(kind=shell_kind), auth_key=KEY
    )
    host = Port(sim, "host", 10e9, queue_bytes=1 << 20)
    fiber = Port(sim, "fiber", 10e9, queue_bytes=1 << 20)
    host_rx, fiber_rx = [], []
    host.attach(lambda p, pkt, size, when: host_rx.append(pkt))
    fiber.attach(lambda p, pkt, size, when: fiber_rx.append(pkt))
    connect(host, module.edge_port)
    connect(module.line_port, fiber)
    return module, host, fiber, host_rx, fiber_rx


class TestCreateAppParameterTypes:
    """A registry build checks each value against its annotation, naming
    the application, the parameter and the value."""

    @pytest.mark.parametrize(
        "name, params",
        [
            ("ratelimiter", {"capacity": "x"}),
            ("vlan", {"access_vid": "100"}),
            ("nat", {"capacity": math.nan}),
            ("nat", {"capacity": True}),
        ],
        ids=["str-for-int", "numeric-str", "nan-for-int", "bool-for-int"],
    )
    def test_a_wrongly_typed_value_is_refused(self, name, params):
        [(key, value)] = params.items()
        with pytest.raises(ConfigError) as excinfo:
            create_app(name, params)
        message = str(excinfo.value)
        assert f"{name!r}" in message and f"{key!r}" in message
        assert repr(value) in message

    @pytest.mark.parametrize("field", ["collector_ip", "exporter_ip"])
    @pytest.mark.parametrize(
        "name, where", [("telemetry", "telemetry"), ("linkhealth", "linkhealth"), ("int", "INT")]
    )
    def test_a_malformed_export_address_is_refused_at_build(self, name, where, field):
        with pytest.raises(ConfigError, match=f"{where} {field}"):
            create_app(name, {field: "203.0.113"})
        assert getattr(create_app(name, {field: 0xCB00710A}), field) == 0xCB00710A

    def test_a_float_parameter_must_be_finite(self, monkeypatch):
        class Meter(Passthrough):
            def __init__(self, rate: float = 1.0) -> None:
                super().__init__()
                self.rate = rate

        monkeypatch.setattr(apps, "Meter", Meter, raising=False)
        monkeypatch.setitem(APP_FACTORIES._exports, "meter", "Meter")
        assert create_app("meter", {"rate": 2}).rate == 2
        for rate in (math.inf, math.nan, False):
            with pytest.raises(ConfigError, match="'rate'"):
                create_app("meter", {"rate": rate})


class TestEveryAppBuildsAndForwards:
    """Baseline: each registered app deploys and moves ordinary traffic."""

    # Apps that intentionally do not pass plain UDP with defaults.
    EXPECTED_TO_FILTER = {"firewall"}  # only with default_action=deny

    @pytest.mark.parametrize("name", sorted(APP_FACTORIES))
    def test_deploys_and_passes_plain_udp(self, sim, name):
        app = create_app(name)
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        host.send(make_udp(payload=b"x" * 100))
        sim.run(until=1e-2)
        assert module.build.report.fits and module.build.report.meets_timing
        assert len(fiber_rx) == 1, f"{name} dropped plain traffic"


class TestAppSpecificBehaviourThroughModule:
    def test_vlan_module_tags_and_strips(self, sim):
        app = create_app("vlan", {"access_vid": 31})
        module, host, fiber, host_rx, fiber_rx = deploy(
            sim, app, ShellKind.TWO_WAY_CORE
        )
        host.send(make_udp(payload=b"up"))
        sim.run(until=1e-3)
        assert fiber_rx[0].get(VLAN).vid == 31
        # Send the tagged frame back down: the tag is stripped.
        fiber.send(Packet.parse(fiber_rx[0].to_bytes()))
        sim.run(until=2e-3)
        assert host_rx and host_rx[0].get(VLAN) is None

    def test_tunnel_module_encapsulates(self, sim):
        app = create_app("tunnel", {"local_ip": "192.0.2.1"})
        app.add_route("172.16.0.0", 16, TunnelRoute("gre", "192.0.2.9", key=5))
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        host.send(make_udp(dst_ip="172.16.1.1", payload=b"inner"))
        sim.run(until=1e-3)
        parsed = Packet.parse(fiber_rx[0].to_bytes())
        assert parsed.get(GRE) is not None
        assert parsed.get(IPv4, 0).dst_ip == "192.0.2.9"

    def test_loadbalancer_module_steers(self, sim):
        from repro.apps import Backend

        app = create_app("loadbalancer")
        app.add_service(
            "10.10.10.10", 80, 6, [Backend("192.168.0.1", "02:be:00:00:00:01")]
        )
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        host.send(make_tcp(dst_ip="10.10.10.10", dport=80))
        sim.run(until=1e-3)
        assert fiber_rx[0].ipv4.dst_ip == "192.168.0.1"

    def test_dnsfilter_module_blocks(self, sim):
        app = create_app("dnsfilter")
        app.block_domain("bad.example")
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        host.send(make_dns_query("x.bad.example"))
        host.send(make_dns_query("good.example"))
        sim.run(until=1e-3)
        assert len(fiber_rx) == 1
        assert fiber_rx[0].dns().questions[0].qname == "good.example"

    def test_ipv6filter_module_blocks_v6_only(self, sim):
        app = create_app("ipv6filter")
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        host.send(make_udp6(payload=b"v6"))
        host.send(make_udp(payload=b"v4"))
        sim.run(until=1e-3)
        assert len(fiber_rx) == 1 and fiber_rx[0].ipv4 is not None

    def test_sanitizer_module_strips_options(self, sim):
        app = create_app("sanitizer")
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        packet = make_udp()
        packet.ipv4.options = b"\x07\x04\x00\x00"
        host.send(packet)
        sim.run(until=1e-3)
        assert fiber_rx and fiber_rx[0].ipv4.options == b""

    def test_ratelimiter_module_polices(self, sim):
        app = create_app("ratelimiter")
        app.add_limit("10.0.0.0", 8, rate_bps=8_000, burst_bytes=300)
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        for _ in range(5):
            host.send(make_udp(payload=b"x" * 200))
        sim.run(until=1e-3)
        assert len(fiber_rx) < 5
        assert module.verdict_drops.packets == 5 - len(fiber_rx)

    def test_int_source_module_stamps(self, sim):
        from repro.packet import INTShim

        app = create_app("int", {"role": "source"})
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        host.send(make_udp(payload=b"z"))
        sim.run(until=1e-3)
        parsed = Packet.parse(fiber_rx[0].to_bytes())
        assert parsed.get(INTShim) is not None

    def test_telemetry_module_exports_inline(self, sim):
        app = create_app("telemetry", {"export_interval_ns": 10_000})
        module, host, fiber, host_rx, fiber_rx = deploy(sim, app)
        for i in range(4):
            sim.schedule(i * 50e-6, host.send, make_udp(sport=7000 + i))
        sim.run(until=1e-2)
        exports = [
            p for p in fiber_rx
            if p.udp is not None and p.udp.dport == UDPPort.NETFLOW
        ]
        assert exports, "no inline flow export observed"
