"""Synthesis cost model: pipeline primitives → fabric resources.

This is the substitute for running Libero/Vivado synthesis.  Each function
returns the :class:`ResourceVector` a primitive occupies after place &
route.  The constants are calibrated against the paper's Table 1 so that
the NAT case study (parser + CRC hash + 32k-entry exact-match table +
rewrite/checksum action + store-and-forward FIFOs + glue, 64-bit datapath)
reproduces the published component breakdown:

* Mi-V softcore:        8 696 LUT /    376 FF /   6 uSRAM /   4 LSRAM
* 10G Ethernet IF:      6 824 LUT /  6 924 FF / 118 uSRAM /   0 LSRAM
* NAT application:     ~9 100 LUT / ~11 300 FF /  36 uSRAM / 160 LSRAM

Fixed IP cores (Mi-V, Ethernet MAC/PCS) are modeled as constants — they
*are* constants in the real flow too (vendor IP).  Parametric primitives
scale with key width, table size, and datapath width so the model
extrapolates to the other §3 use cases and to wider datapaths (§5.3).
"""

from __future__ import annotations

import math

from .._util import ceil_div
from ..errors import ResourceError
from .resources import (
    ResourceVector,
    sram_blocks_for_table,
    usram_blocks_for_bits,
)

REFERENCE_WIDTH_BITS = 64  # calibration datapath width


def _width_factor(datapath_bits: int) -> float:
    """Sub-linear growth of byte-steering logic with bus width."""
    if datapath_bits <= 0:
        raise ResourceError("datapath width must be positive")
    ratio = datapath_bits / REFERENCE_WIDTH_BITS
    # Muxing grows ~linearly, control logic barely: blend at 0.75.
    return 0.25 + 0.75 * ratio


# ----------------------------------------------------------------------
# Fixed IP cores (vendor macros; footprints from the paper's Table 1)
# ----------------------------------------------------------------------
def miv_core() -> ResourceVector:
    """Mi-V RV32 softcore used as the lightweight control plane."""
    return ResourceVector(lut4=8_696, ff=376, usram=6, lsram=4)


def ethernet_interface_10g(kind: str = "electrical") -> ResourceVector:
    """10G Ethernet MAC+PCS IP core (serial ↔ packets).

    The electrical and optical instances differ by a handful of LUTs in the
    line-side conditioning logic, mirroring Table 1's 6 824 vs 6 813.
    """
    if kind == "electrical":
        return ResourceVector(lut4=6_824, ff=6_924, usram=118, lsram=0)
    if kind == "optical":
        return ResourceVector(lut4=6_813, ff=6_924, usram=118, lsram=0)
    raise ResourceError(f"unknown interface kind {kind!r}")


def management_interface_1g() -> ResourceVector:
    """Out-of-band 1G management MAC for the active-control-plane shell."""
    return ResourceVector(lut4=2_450, ff=2_600, usram=40, lsram=0)


def soc_hard_processor() -> ResourceVector:
    """SoC-class hard processor option (§4.1): no fabric LUTs, but the
    AXI interconnect/bridging it drags into the fabric."""
    return ResourceVector(lut4=3_200, ff=4_100, usram=24, lsram=8)


# ----------------------------------------------------------------------
# Parametric pipeline primitives
# ----------------------------------------------------------------------
def parser(header_bytes: int, datapath_bits: int = REFERENCE_WIDTH_BITS) -> ResourceVector:
    """Streaming header parser for ``header_bytes`` of protocol headers."""
    if header_bytes <= 0:
        raise ResourceError("parser needs at least one header byte")
    factor = _width_factor(datapath_bits)
    return ResourceVector(
        lut4=int((36 * header_bytes + 200) * factor),
        ff=int((42 * header_bytes + 150) * factor),
    )


def deparser(header_bytes: int, datapath_bits: int = REFERENCE_WIDTH_BITS) -> ResourceVector:
    """Header re-assembly/emit stage (cheaper than the parser)."""
    if header_bytes <= 0:
        raise ResourceError("deparser needs at least one header byte")
    factor = _width_factor(datapath_bits)
    return ResourceVector(
        lut4=int((22 * header_bytes + 150) * factor),
        ff=int((25 * header_bytes + 120) * factor),
    )


def crc_hash(key_bits: int) -> ResourceVector:
    """CRC-based hash unit over a ``key_bits``-wide key."""
    if key_bits <= 0:
        raise ResourceError("hash key must be non-empty")
    return ResourceVector(lut4=20 * key_bits + 300, ff=10 * key_bits + 120)


def exact_match_table(
    entries: int,
    key_bits: int,
    value_bits: int,
    datapath_bits: int = REFERENCE_WIDTH_BITS,
) -> ResourceVector:
    """Hash-addressed exact-match table (storage + lookup controller).

    Storage: one valid bit plus key remainder plus value per entry, rounded
    to a 4-bit-aligned physical word, placed in LSRAM blocks.  The paper's
    NAT table (32 768 × (32-bit key + 64-bit value)) lands on a 100-bit
    word ⇒ exactly 160 LSRAM blocks.
    """
    if entries <= 0:
        raise ResourceError("table needs at least one entry")
    entry_bits = _align(1 + key_bits + value_bits, 4)
    address_bits = max(1, math.ceil(math.log2(entries)))
    controller = ResourceVector(
        lut4=140 * address_bits + 400,
        ff=160 * address_bits + 250,
    )
    storage = ResourceVector(lsram=sram_blocks_for_table(entries, entry_bits))
    return controller + storage + crc_hash(key_bits)


def lpm_table(
    entries: int, key_bits: int, value_bits: int
) -> ResourceVector:
    """Longest-prefix-match table (multi-stage trie in LSRAM)."""
    if entries <= 0:
        raise ResourceError("table needs at least one entry")
    # A pipelined trie roughly doubles storage vs exact match and needs a
    # controller per trie level (modeled as 4 levels of key strides).
    entry_bits = _align(1 + key_bits + value_bits, 4)
    levels = 4
    controller = ResourceVector(
        lut4=levels * (60 * max(1, key_bits // levels) + 250),
        ff=levels * (70 * max(1, key_bits // levels) + 180),
    )
    storage = ResourceVector(lsram=2 * sram_blocks_for_table(entries, entry_bits))
    return controller + storage


def ternary_table(entries: int, key_bits: int, value_bits: int) -> ResourceVector:
    """TCAM-style ternary table emulated in fabric (expensive in LUTs).

    Each entry burns match logic proportional to the key width — this is
    why large ACLs do not fit and the paper scopes FlexSFP to compact
    match-action chains.
    """
    if entries <= 0:
        raise ResourceError("table needs at least one entry")
    per_entry_lut = max(2, key_bits // 2)
    value_bits_total = _align(value_bits, 4)
    storage = ResourceVector(
        lsram=sram_blocks_for_table(max(entries, 32), value_bits_total)
    )
    priority_encoder = ResourceVector(
        lut4=3 * entries + 100, ff=2 * entries + 80
    )
    return (
        ResourceVector(lut4=per_entry_lut * entries, ff=key_bits * 2)
        + priority_encoder
        + storage
    )


def flow_cache(
    entries: int,
    key_bits: int = 104,
    recipe_bits: int = 128,
) -> ResourceVector:
    """Exact-match flow cache in front of the PPE (the fast path).

    Storage is one valid bit + key remainder + cached recipe (verdict,
    rewrite words, generation stamp) per entry in LSRAM, with an LRU
    controller and the usual CRC index hash.  Sits beside the pipeline,
    not in it — it adds area, never latency, which is why
    ``PipelineSpec.pipeline_depth`` excludes it.
    """
    if entries <= 0:
        raise ResourceError("flow cache needs at least one entry")
    entry_bits = _align(1 + key_bits + recipe_bits, 4)
    address_bits = max(1, math.ceil(math.log2(entries)))
    controller = ResourceVector(
        lut4=170 * address_bits + 500,  # lookup + LRU victim selection
        ff=190 * address_bits + 300,
    )
    storage = ResourceVector(lsram=sram_blocks_for_table(entries, entry_bits))
    return controller + storage + crc_hash(key_bits)


def action_unit(
    rewrite_bits: int, datapath_bits: int = REFERENCE_WIDTH_BITS
) -> ResourceVector:
    """Field-rewrite unit mutating up to ``rewrite_bits`` of header."""
    if rewrite_bits < 0:
        raise ResourceError("negative rewrite width")
    factor = _width_factor(datapath_bits)
    return ResourceVector(
        lut4=int((14 * rewrite_bits + 450) * factor),
        ff=int((10 * rewrite_bits + 350) * factor),
    )


def checksum_update_unit() -> ResourceVector:
    """RFC 1624 incremental checksum adder tree."""
    return ResourceVector(lut4=600, ff=350)


def frame_fifo(
    depth_bytes: int, metadata_bits: int = 0, metadata_entries: int = 16
) -> ResourceVector:
    """Store-and-forward frame FIFO plus optional sideband metadata FIFO.

    Frame data goes to uSRAM when it fits in <= 64 blocks, LSRAM otherwise
    (matching how shallow packet buffers map on PolarFire).
    """
    if depth_bytes <= 0:
        raise ResourceError("FIFO depth must be positive")
    data_bits = depth_bytes * 8
    data_blocks = usram_blocks_for_bits(data_bits)
    if data_blocks <= 64:
        storage = ResourceVector(usram=data_blocks)
    else:
        storage = ResourceVector(lsram=ceil_div(data_bits, 20 * 1024))
    controller = ResourceVector(lut4=450, ff=500)
    meta = ResourceVector(usram=usram_blocks_for_bits(metadata_bits * metadata_entries))
    return storage + controller + meta


def counter_bank(counters: int, bits: int = 64) -> ResourceVector:
    """Per-entry statistics counters (packet/byte) in uSRAM."""
    if counters <= 0:
        raise ResourceError("counter bank needs at least one counter")
    return ResourceVector(
        lut4=200 + 2 * counters if counters < 128 else 200 + 256,
        ff=bits + 100,
        usram=usram_blocks_for_bits(counters * bits),
    )


def meter_bank(meters: int) -> ResourceVector:
    """Token-bucket meters (rate limiting), one adder + state per meter."""
    if meters <= 0:
        raise ResourceError("meter bank needs at least one meter")
    return ResourceVector(
        lut4=350 + 6 * min(meters, 1024),
        ff=250 + 4 * min(meters, 1024),
        usram=usram_blocks_for_bits(meters * 96),
    )


def timestamp_unit() -> ResourceVector:
    """Free-running nanosecond timestamp counter + capture logic."""
    return ResourceVector(lut4=280, ff=180)


def pipeline_glue(
    stages: int, datapath_bits: int = REFERENCE_WIDTH_BITS
) -> ResourceVector:
    """Inter-stage registers, valid/ready handshake, and routing margin."""
    if stages <= 0:
        raise ResourceError("pipeline needs at least one stage")
    return ResourceVector(
        lut4=stages * datapath_bits * 4,
        ff=stages * datapath_bits * 11,
    )


def crossbar(
    ports: int,
    datapath_bits: int = REFERENCE_WIDTH_BITS,
    match_bits: int = 48,
) -> ResourceVector:
    """Crosspoint steering stage fanning one ingress out to ``ports``
    tenant partitions (the ``repro.nfv`` multi-tenant data plane).

    Two pieces: per-port steering comparators over ``match_bits`` of
    header (UDP destination port + IPv4 destination prefix = 48 bits for
    the deployment API's rule set), and the crosspoint muxes replicating
    the datapath toward each partition.  Both scale linearly in the port
    count; mux width scales sub-linearly with the bus like every other
    byte-steering primitive here.
    """
    if ports <= 0:
        raise ResourceError("crossbar needs at least one port")
    if match_bits < 0:
        raise ResourceError("negative match width")
    factor = _width_factor(datapath_bits)
    comparators = ResourceVector(
        lut4=ports * (2 * match_bits + 120),
        ff=ports * (match_bits + 40),
    )
    crosspoints = ResourceVector(
        lut4=int(ports * datapath_bits * 6 * factor),
        ff=int(ports * datapath_bits * 8 * factor),
    )
    return comparators + crosspoints


def _align(bits: int, to: int) -> int:
    return ceil_div(bits, to) * to
