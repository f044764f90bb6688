"""Packet library: headers, parsing, serialization, and builders.

This package is the wire-format substrate for the whole FlexSFP
reproduction: the PPE, the legacy-switch models, the traffic generators, and
the management protocol all speak :class:`Packet`.
"""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "base": ("EtherType", "Header", "IPProto", "UDPPort"),
        "builder": (
            "gre_encap", "make_dns_query", "make_icmp_echo", "make_tcp", "make_udp",
            "make_udp6", "pad_to_min", "vlan_pop", "vlan_push", "vxlan_encap",
        ),
        "checksum": (
            "incremental_update16", "incremental_update32", "internet_checksum",
            "l4_checksum", "ones_complement_sum", "pseudo_header_v4",
            "pseudo_header_v6",
        ),
        "dns": ("DNSMessage", "DNSQuestion", "QType"),
        "ethernet": ("ARP", "BROADCAST_MAC", "Ethernet", "VLAN"),
        "ip": ("IPv4", "IPv6"),
        "packet": ("ETHERTYPE_TRANSPARENT_ETHERNET", "Packet"),
        "telemetry": ("INTHop", "INTShim"),
        "transport": ("ICMP", "TCP", "TCPFlags", "UDP"),
        "tunnels": ("GRE", "VXLAN"),
    },
)
