"""PPE applications: the paper's §3 use-case spectrum, runnable + buildable.

Every application here is both a functional packet program (executed by the
simulated PPE) and a synthesizable design (priced by the build flow).
:mod:`~repro.apps.registry` lets the module reconstruct applications from
bitstream metadata after an over-the-network reconfiguration.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "chain": ("AppChain",),
        "dnsfilter": ("DnsFilter", "domain_suffixes"),
        "firewall": ("AclFirewall", "AclRule", "five_tuple_key"),
        "inband": ("InbandTelemetry", "pack_report", "unpack_report"),
        "ipv6filter": ("Ipv6Filter",),
        "linkhealth": ("LinkEvent", "LinkHealthMonitor", "pack_alert", "unpack_alert"),
        "loadbalancer": ("Backend", "L4LoadBalancer", "flow_hash"),
        "nat": ("PAPER_NAT_FLOWS", "StaticNat"),
        "ratelimiter": ("RateLimiter", "TokenBucket"),
        "registry": ("APP_FACTORIES", "create_app"),
        "responder": ("CpuPunt",),
        "sanitizer": ("PacketSanitizer", "Passthrough"),
        "telemetry": ("FlowRecord", "FlowTelemetry", "pack_records", "unpack_records"),
        "tunnel": ("TunnelGateway", "TunnelRoute"),
        "vlan": ("VlanTagger",),
    },
)
