"""§4.1 assumption check — "control-plane traffic is negligible".

The One-Way-Filter design merges control-plane responses into the reverse
data path and assumes "control-plane traffic is negligible compared to
the data-plane traffic traversing the module, such that the aggregation
step does not become a performance bottleneck".

This bench stresses that assumption deliberately: line-rate data traffic
while an orchestrator performs a *full OTA deployment* (the chattiest
management operation) plus continuous counter polling.  It reports the
arbiter's measured control fraction and the impact on data goodput.
"""

import pytest

from common import report
from repro.apps import AclFirewall, StaticNat
from repro.core import FlexSFPModule, ShellSpec
from repro.fleet import FleetController
from repro.hls import compile_app
from repro.netem import CbrSource
from repro.packet import make_udp
from repro.sim import Port, RateMeter, Simulator, connect
from repro.nfv import Deployment

KEY = b"bench-key"
RUN_S = 60e-3  # long enough to contain the whole OTA transfer


def compute():
    sim = Simulator()
    nat = StaticNat(capacity=256)
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    module = FlexSFPModule(sim, "dut", Deployment.solo(nat), auth_key=KEY)

    # The controller shares the host-side 10G link with the data traffic.
    controller = FleetController(sim, auth_key=KEY, rate_bps=10e9)
    controller.port.queue_bytes = 1 << 22
    fiber = Port(sim, "fiber", 10e9)
    meter = RateMeter("fiber")
    fiber.attach(lambda p, pkt, size, when: meter.observe(when, size))
    connect(controller.port, module.edge_port)
    connect(module.line_port, fiber)

    # Line-rate-ish data traffic from the host side shares the edge link
    # with the management traffic (the controller port carries both here).
    CbrSource(
        sim,
        controller.port,
        rate_bps=8e9,
        frame_len=512,
        stop=RUN_S,
        factory=lambda i, n: make_udp(src_ip="10.0.0.1", payload=bytes(470)),
    )

    # The chattiest management scenario: a full bitstream deployment
    # (no reboot, to keep the datapath up) plus counter polling.
    build = compile_app(AclFirewall(capacity=64), ShellSpec())
    outcome = []
    controller.deploy(
        module.mgmt_mac,
        build.bitstream,
        slot=1,
        reboot=False,
        on_done=lambda ok, reason: outcome.append((ok, reason)),
    )

    def poll():
        controller.counter_read(module.mgmt_mac, lambda reply: None)
        if sim.now < RUN_S:
            sim.schedule(1e-3, poll)

    sim.schedule(0.0, poll)
    sim.run(until=RUN_S + 5e-3)

    return {
        "deploy_ok": bool(outcome and outcome[0][0]),
        "control_fraction": module.arbiter.control_fraction(),
        "data_goodput_gbps": meter.bits_per_second() / 1e9,
        "ppe_drops": module.ppe.overload_drops.packets,
        "mgmt_commands": module.control_plane.commands_handled,
    }


def test_control_overhead():
    result = compute()
    report(
        "§4.1 assumption: control share during a full OTA deploy + polling",
        ("metric", "value"),
        [
            ("deploy completed", result["deploy_ok"]),
            ("mgmt commands handled", result["mgmt_commands"]),
            ("control fraction of edge bytes", f"{result['control_fraction']:.3%}"),
            ("data goodput (Gbps)", f"{result['data_goodput_gbps']:.2f}"),
            ("PPE overload drops", result["ppe_drops"]),
        ],
    )
    assert result["deploy_ok"]
    assert result["mgmt_commands"] > 50  # the OTA really happened
    # The assumption holds even under the chattiest management load:
    # control traffic stays ~1% of edge bytes and data goodput is intact.
    assert result["control_fraction"] < 0.02
    assert result["data_goodput_gbps"] == pytest.approx(8 * 512 / 536, rel=0.03)
    assert result["ppe_drops"] == 0
