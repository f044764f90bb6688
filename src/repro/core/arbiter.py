"""The on-board arbiter: control/data traffic demultiplexing.

Figure 1 shows an arbiter between the edge interface, the PPE, and the
management core: control-plane frames (EtherType 0x88B5) are steered to
the embedded control plane, everything else to the data path, and
control-plane responses are merged back into the egress stream.  The paper
assumes "control-plane traffic is negligible compared to the data-plane
traffic"; the arbiter tracks both classes so tests can check that premise.
"""

from __future__ import annotations

from ..packet import EtherType, Packet
from ..sim.stats import Counter


def is_mgmt_frame(packet: Packet) -> bool:
    """True when the outermost EtherType is the FlexSFP management type."""
    eth = packet.eth
    return eth is not None and eth.ethertype == EtherType.FLEXSFP_MGMT


class Arbiter:
    """Counting demux between control-plane and data-plane traffic."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.to_cpu = Counter(f"{name}.to_cpu")
        self.to_data = Counter(f"{name}.to_data")
        self.from_cpu = Counter(f"{name}.from_cpu")

    def classify(self, packet: Packet, size: int | None = None) -> str:
        """Classify one ingress frame: ``"cpu"`` or ``"data"``.

        ``size`` lets hot callers that already know the wire length avoid
        recomputing it for the byte counters.
        """
        if size is None:
            size = packet.wire_len
        # is_mgmt_frame and Counter.count, inlined: once per ingress frame.
        eth = packet.eth
        if eth is not None and eth.ethertype == EtherType.FLEXSFP_MGMT:
            counter, kind = self.to_cpu, "cpu"
        else:
            counter, kind = self.to_data, "data"
        counter.packets += 1
        counter.bytes += size
        return kind

    def classify_bulk(self, packet: Packet, size: int, count: int) -> str:
        """Classify a burst of ``count`` identical frames in one call.

        Counter totals match ``count`` individual :meth:`classify` calls.
        """
        if is_mgmt_frame(packet):
            self.to_cpu.packets += count
            self.to_cpu.bytes += count * size
            return "cpu"
        self.to_data.packets += count
        self.to_data.bytes += count * size
        return "data"

    def merge_from_cpu(self, packet: Packet) -> Packet:
        """Account a control-plane response entering the egress stream."""
        self.from_cpu.count(packet.wire_len)
        return packet

    def control_fraction(self) -> float:
        """Share of ingress bytes that were control-plane traffic."""
        total = self.to_cpu.bytes + self.to_data.bytes
        return self.to_cpu.bytes / total if total else 0.0
