"""FlexSFP: network intelligence inside the cable — a Python reproduction.

A simulation and feasibility toolkit for programmable SFP+ transceivers,
reproducing the FlexSFP paper (HotNets '25):

* :mod:`repro.packet` — wire-format substrate (headers, checksums, pcap).
* :mod:`repro.sim` — discrete-event engine, ports/links, Ethernet math.
* :mod:`repro.fpga` — resource vectors, device catalog, synthesis cost
  model, timing closure, bitstreams, SPI flash.
* :mod:`repro.core` — the FlexSFP module: shells, PPE runtime, tables,
  embedded control plane, over-the-network reprogramming.
* :mod:`repro.hls` — the programming model: XDP-like front end, pipeline
  IR, build flow.
* :mod:`repro.apps` — the §3 use-case applications (NAT, firewall, VLAN,
  tunnels, load balancing, rate limiting, telemetry, INT, DNS filtering,
  sanitization).
* :mod:`repro.nfv` — multi-tenant deployments: typed tenant specs,
  crossbar steering, static feasibility pricing.
* :mod:`repro.switch` — legacy switch + retrofit machinery.
* :mod:`repro.netem` — workload generation and link impairments.
* :mod:`repro.faults` — deterministic fault injection + chaos gauntlet.
* :mod:`repro.costmodel` / :mod:`repro.testbed` — Table 3 economics and
  the §5 power testbed.

Quick start::

    from repro.sim import Simulator, Port, connect
    from repro.core import FlexSFPModule
    from repro.nfv import Deployment
    from repro.apps import StaticNat

    sim = Simulator()
    nat = StaticNat()
    nat.add_mapping("10.0.0.1", "198.51.100.1")
    module = FlexSFPModule(sim, "sfp0", Deployment.solo(nat))

``import repro`` executes the version, the error taxonomy and this export
table, nothing else: this and every sub-package ``__init__`` is one
``{submodule: names}`` table (:func:`repro._util.export_table`), and a
name imports its defining submodule the first time it is used.
"""

from ._util import export_table

__version__ = "2.0.0"

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "apps": ("apps",),
        "core": ("core",),
        "costmodel": ("costmodel",),
        "errors": (
            "BitstreamError", "CompileError", "ConfigError", "ControlPlaneError",
            "FlashError", "PacketError", "ParseError", "ReproError",
            "ResourceError", "SerializationError", "SimulationError",
            "TableError", "TimingError",
        ),
        "faults": ("faults",),
        "fleet": ("fleet",),
        "fpga": ("fpga",),
        "hls": ("hls",),
        "netem": ("netem",),
        "nfv": ("nfv",),
        "packet": ("packet",),
        "sim": ("sim",),
        "switch": ("switch",),
        "testbed": ("testbed",),
    },
)
__all__ = sorted([*__all__, "__version__"])
