"""§2 motivation — the acceleration gap, quantified.

"Network operators are often left to choose between two suboptimal
options: executing simple tasks on the host CPU ... or deploying a
full-featured SmartNIC."  This bench runs the same simple task (NAT-class
per-packet work) down all three paths across offered rates and reports
cores, watts, and latency — making the paper's "cheap path" case with
numbers:

* host CPU: cores scale with pps, latency explodes near saturation,
  line-rate minimum frames are simply infeasible;
* SmartNIC: always feasible, but 25-75 W for a trivial job;
* FlexSFP: line rate at ~1.5 W, zero host cores.
"""

import math


from common import report
from repro.costmodel import DPU_BF2, MANY_CORE
from repro.sim import max_frame_rate
from repro.testbed import FLEXSFP_TOTAL_W, HostCpuPath

RATES_GBPS = (1.0, 5.0, 10.0)
FRAME = 60  # minimum-size frames: the stress case


def compute():
    host = HostCpuPath()
    rows = []
    for gbps in RATES_GBPS:
        pps = max_frame_rate(gbps * 1e9, FRAME)
        cores = host.cores_needed(pps)
        feasible = host.feasible(pps)
        latency = host.latency_s(pps)
        rows.append(
            {
                "gbps": gbps,
                "mpps": pps / 1e6,
                "host_cores": cores,
                "host_feasible": feasible,
                "host_watts": host.power_w(pps),
                "host_latency_us": latency * 1e6 if math.isfinite(latency) else None,
                "smartnic_watts": MANY_CORE.power_w,
                "dpu_watts": DPU_BF2.power_w,
                "flexsfp_watts": FLEXSFP_TOTAL_W,
            }
        )
    return rows


def test_acceleration_gap():
    rows = compute()
    report(
        "§2 acceleration gap: one simple task, three paths (64 B frames)",
        (
            "Gbps",
            "Mpps",
            "host cores",
            "host W",
            "host lat us",
            "SmartNIC W",
            "DPU W",
            "FlexSFP W",
        ),
        [
            (
                f"{r['gbps']:.0f}",
                f"{r['mpps']:.2f}",
                f"{r['host_cores']:.1f}" + ("" if r["host_feasible"] else " (INFEASIBLE)"),
                f"{r['host_watts']:.0f}",
                f"{r['host_latency_us']:.2f}" if r["host_latency_us"] else "saturated",
                f"{r['smartnic_watts']:.0f}",
                f"{r['dpu_watts']:.0f}",
                f"{r['flexsfp_watts']:.2f}",
            )
            for r in rows
        ],
    )
    by_rate = {r["gbps"]: r for r in rows}
    # 1G of small packets is cheap enough in software...
    assert by_rate[1.0]["host_feasible"]
    # ...but 10G line rate of minimum frames is not (the offload driver).
    assert not by_rate[10.0]["host_feasible"]
    # Host power for the task at 5G already exceeds 2 SmartNIC-class
    # multipliers of the FlexSFP; every path's power dwarfs the module.
    for row in rows:
        assert row["flexsfp_watts"] < 2.0
        assert row["smartnic_watts"] >= 10 * row["flexsfp_watts"]
        assert row["dpu_watts"] >= 40 * row["flexsfp_watts"]
    # Latency/jitter motivation: host latency at 5G is multiples of the
    # unloaded service time.
    host = HostCpuPath()
    assert by_rate[5.0]["host_latency_us"] > 2 * host.per_packet_ns / 1e3