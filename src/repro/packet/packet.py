"""The :class:`Packet` container: a header stack plus payload.

A packet is an ordered list of headers followed by opaque payload bytes.
``Packet.parse`` walks the standard dispatch chain (Ethernet → VLAN/QinQ →
INT shim → IPv4/IPv6/ARP → TCP/UDP/ICMP/GRE → VXLAN → inner Ethernet …);
``Packet.to_bytes`` serializes and, by default, fixes up every length and
checksum field the same way NIC offload engines do.
"""

from __future__ import annotations

from typing import Iterator, TypeVar

from ..errors import ParseError, SerializationError
from .base import EtherType, Header, IPProto, UDPPort
from .checksum import (
    internet_checksum,
    l4_checksum,
    pseudo_header_v4,
    pseudo_header_v6,
)
from .dns import DNSMessage
from .ethernet import ARP, Ethernet, VLAN
from .ip import IPv4, IPv6
from .telemetry import INTShim
from .transport import ICMP, TCP, UDP
from .tunnels import GRE, VXLAN

H = TypeVar("H", bound=Header)

ETHERTYPE_TRANSPARENT_ETHERNET = 0x6558  # GRE/NVGRE bridged Ethernet

# Maximum nesting of encapsulation the parser will follow.
_MAX_PARSE_DEPTH = 8

_new = object.__new__
_plain_copy = Header.copy


class Packet:
    """An ordered header stack and payload, with simulation metadata.

    ``meta`` is a free-form dict used by the simulator and applications for
    out-of-band annotations (ingress port, timestamps, verdict notes); it is
    never serialized to the wire.
    """

    __slots__ = ("headers", "payload", "meta")

    def __init__(self, headers: list[Header] | None = None, payload: bytes = b"") -> None:
        self.headers: list[Header] = list(headers or [])
        self.payload = bytes(payload)
        self.meta: dict = {}

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def get(self, header_type: type[H], index: int = 0) -> H | None:
        """Return the ``index``-th header of ``header_type`` (or None)."""
        seen = 0
        for header in self.headers:
            if isinstance(header, header_type):
                if seen == index:
                    return header
                seen += 1
        return None

    def get_all(self, header_type: type[H]) -> list[H]:
        """All headers of the given type, outermost first."""
        return [h for h in self.headers if isinstance(h, header_type)]

    def has(self, header_type: type[Header]) -> bool:
        return self.get(header_type) is not None

    def index_of(self, header: Header) -> int:
        """Position of ``header`` (by identity) in the stack."""
        for i, existing in enumerate(self.headers):
            if existing is header:
                return i
        raise SerializationError("header is not part of this packet")

    # The shorthand header accessors inline the scan instead of calling
    # ``get``: they run several times per simulated frame.
    @property
    def eth(self) -> Ethernet | None:
        for header in self.headers:
            if isinstance(header, Ethernet):
                return header
        return None

    @property
    def ipv4(self) -> IPv4 | None:
        for header in self.headers:
            if isinstance(header, IPv4):
                return header
        return None

    @property
    def ipv6(self) -> IPv6 | None:
        for header in self.headers:
            if isinstance(header, IPv6):
                return header
        return None

    @property
    def tcp(self) -> TCP | None:
        for header in self.headers:
            if isinstance(header, TCP):
                return header
        return None

    @property
    def udp(self) -> UDP | None:
        for header in self.headers:
            if isinstance(header, UDP):
                return header
        return None

    @property
    def wire_len(self) -> int:
        """Frame length in bytes as transmitted (without preamble/FCS)."""
        total = len(self.payload)
        for header in self.headers:
            total += header.header_len
        return total

    def __iter__(self) -> Iterator[Header]:
        return iter(self.headers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "/".join(h.name for h in self.headers) or "raw"
        return f"<Packet {names} payload={len(self.payload)}B>"

    # ------------------------------------------------------------------
    # Mutation helpers (used by PPE actions)
    # ------------------------------------------------------------------
    def insert_after(self, anchor: Header, new_header: Header) -> None:
        """Insert ``new_header`` right after ``anchor`` in the stack."""
        self.headers.insert(self.index_of(anchor) + 1, new_header)

    def insert_before(self, anchor: Header, new_header: Header) -> None:
        """Insert ``new_header`` right before ``anchor`` in the stack."""
        self.headers.insert(self.index_of(anchor), new_header)

    def remove(self, header: Header) -> None:
        """Remove ``header`` (by identity) from the stack."""
        del self.headers[self.index_of(header)]

    def copy(self) -> "Packet":
        """An independent frame: one dict copy per header and a new list;
        only the immutable payload is shared, nothing is cached.  The loop
        is ``Header.copy`` inlined; a subclass's override is called."""
        clone = _new(Packet)
        clone.headers = headers = []
        for header in self.headers:
            cls = header.__class__
            if cls.copy is _plain_copy:
                twin = _new(cls)
                twin.__dict__ = header.__dict__.copy()
            else:
                twin = header.copy()
            headers.append(twin)
        clone.payload = self.payload
        meta = self.meta
        clone.meta = meta.copy() if meta else {}
        return clone

    # ------------------------------------------------------------------
    # Flow identification
    # ------------------------------------------------------------------
    def five_tuple(self) -> tuple[int, int, int, int, int] | None:
        """(src, dst, proto, sport, dport) of the outermost IP flow."""
        ip4 = self.ipv4
        if ip4 is not None:
            sport = dport = 0
            l4 = self.get(TCP) or self.get(UDP)
            if l4 is not None:
                sport, dport = l4.sport, l4.dport
            return (ip4.src, ip4.dst, ip4.proto, sport, dport)
        ip6 = self.ipv6
        if ip6 is not None:
            sport = dport = 0
            l4 = self.get(TCP) or self.get(UDP)
            if l4 is not None:
                sport, dport = l4.sport, l4.dport
            return (ip6.src, ip6.dst, ip6.next_header, sport, dport)
        return None

    def dns(self) -> DNSMessage | None:
        """Parse the payload as DNS when carried over UDP port 53."""
        udp = self.udp
        if udp is None or UDPPort.DNS not in (udp.sport, udp.dport):
            return None
        try:
            return DNSMessage.parse(self.payload)
        except ParseError:
            return None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self, fill: bool = True) -> bytes:
        """Serialize the packet.

        With ``fill`` (the default) every length field is recomputed and
        IPv4/TCP/UDP/ICMP checksums are filled in, mutating the headers in
        place — the same contract as hardware checksum offload.
        """
        if fill:
            self._fill_lengths()
            self._fill_checksums()
        return b"".join(h.pack() for h in self.headers) + self.payload

    def _fill_lengths(self) -> None:
        remaining = len(self.payload)
        for header in reversed(self.headers):
            if isinstance(header, IPv4):
                header.total_length = header.header_len + remaining
            elif isinstance(header, IPv6):
                header.payload_length = remaining
            elif isinstance(header, UDP):
                header.length = header.header_len + remaining
            remaining += header.header_len

    def _tail_bytes(self, index: int) -> bytes:
        """Bytes of everything after ``headers[index]`` (headers + payload)."""
        return b"".join(h.pack() for h in self.headers[index + 1 :]) + self.payload

    def _nearest_ip(self, index: int) -> IPv4 | IPv6 | None:
        for header in reversed(self.headers[:index]):
            if isinstance(header, (IPv4, IPv6)):
                return header
        return None

    def _fill_checksums(self) -> None:
        # Innermost first so outer checksums cover final inner bytes.
        for index in range(len(self.headers) - 1, -1, -1):
            header = self.headers[index]
            if isinstance(header, (TCP, UDP)):
                ip = self._nearest_ip(index)
                if ip is None:
                    raise SerializationError(f"{header.name} without an IP header")
                header.checksum = 0
                segment = header.pack() + self._tail_bytes(index)
                if isinstance(ip, IPv4):
                    pseudo = pseudo_header_v4(ip.src, ip.dst, ip.proto, len(segment))
                else:
                    pseudo = pseudo_header_v6(
                        ip.src, ip.dst, ip.next_header, len(segment)
                    )
                checksum = l4_checksum(pseudo, segment)
                if isinstance(header, UDP) and checksum == 0:
                    checksum = 0xFFFF  # RFC 768: transmitted all-ones
                header.checksum = checksum
            elif isinstance(header, ICMP):
                header.checksum = 0
                header.checksum = internet_checksum(
                    header.pack() + self._tail_bytes(index)
                )
            elif isinstance(header, IPv4):
                header.checksum = 0
                header.checksum = internet_checksum(header.pack())

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, data: bytes | memoryview) -> "Packet":
        """Parse a full Ethernet frame into a header stack + payload."""
        view = memoryview(data)
        headers: list[Header] = []
        offset = _parse_ethernet_chain(view, 0, headers, depth=0)
        packet = cls(headers, bytes(view[offset:]))
        return packet


def _parse_ethernet_chain(
    view: memoryview, offset: int, headers: list[Header], depth: int
) -> int:
    if depth > _MAX_PARSE_DEPTH:
        raise ParseError("encapsulation nesting too deep")
    eth, consumed = Ethernet.unpack(view, offset)
    headers.append(eth)
    offset += consumed
    return _parse_by_ethertype(view, offset, eth.ethertype, headers, depth)


def _parse_by_ethertype(
    view: memoryview, offset: int, ethertype: int, headers: list[Header], depth: int
) -> int:
    if ethertype in (EtherType.VLAN, EtherType.QINQ):
        vlan, consumed = VLAN.unpack(view, offset)
        headers.append(vlan)
        return _parse_by_ethertype(
            view, offset + consumed, vlan.ethertype, headers, depth
        )
    if ethertype == EtherType.INT_SHIM:
        shim, consumed = INTShim.unpack(view, offset)
        headers.append(shim)
        return _parse_by_ethertype(
            view, offset + consumed, shim.next_ethertype, headers, depth
        )
    if ethertype == EtherType.IPV4:
        ip, consumed = IPv4.unpack(view, offset)
        headers.append(ip)
        return _parse_by_ip_proto(view, offset + consumed, ip.proto, headers, depth)
    if ethertype == EtherType.IPV6:
        ip6, consumed = IPv6.unpack(view, offset)
        headers.append(ip6)
        return _parse_by_ip_proto(
            view, offset + consumed, ip6.next_header, headers, depth
        )
    if ethertype == EtherType.ARP:
        arp, consumed = ARP.unpack(view, offset)
        headers.append(arp)
        return offset + consumed
    # Unknown EtherType: remainder is payload.
    return offset


def _parse_by_ip_proto(
    view: memoryview, offset: int, proto: int, headers: list[Header], depth: int
) -> int:
    if proto == IPProto.TCP:
        tcp, consumed = TCP.unpack(view, offset)
        headers.append(tcp)
        return offset + consumed
    if proto == IPProto.UDP:
        udp, consumed = UDP.unpack(view, offset)
        headers.append(udp)
        offset += consumed
        if UDPPort.VXLAN in (udp.sport, udp.dport) and offset < len(view):
            # Port 4789 is a heuristic, not a guarantee: if the bytes do
            # not decode as VXLAN + inner Ethernet, treat them as opaque
            # UDP payload (what a hardware parser's validity bits do).
            mark = len(headers)
            try:
                vxlan, vconsumed = VXLAN.unpack(view, offset)
                headers.append(vxlan)
                return _parse_ethernet_chain(
                    view, offset + vconsumed, headers, depth + 1
                )
            except ParseError:
                del headers[mark:]
                return offset
        return offset
    if proto == IPProto.ICMP:
        icmp, consumed = ICMP.unpack(view, offset)
        headers.append(icmp)
        return offset + consumed
    if proto == IPProto.GRE:
        gre, consumed = GRE.unpack(view, offset)
        headers.append(gre)
        offset += consumed
        if gre.protocol == ETHERTYPE_TRANSPARENT_ETHERNET:
            return _parse_ethernet_chain(view, offset, headers, depth + 1)
        return _parse_by_ethertype(view, offset, gre.protocol, headers, depth + 1)
    if proto == IPProto.IPIP:
        inner, consumed = IPv4.unpack(view, offset)
        headers.append(inner)
        return _parse_by_ip_proto(
            view, offset + consumed, inner.proto, headers, depth + 1
        )
    # Unknown L4 protocol: remainder is payload.
    return offset
