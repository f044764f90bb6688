"""Semantic verification of pipeline IR, ahead of synthesis.

:class:`~repro.hls.ir.PipelineSpec` construction already enforces local
invariants (required params, unique stage names).  This verifier checks the
*global* properties the build flow (§4.2) promises to reject before a
bitstream ever reaches a cable:

* ``ir-no-parser`` / ``ir-parser-order`` — tables and actions need parsed
  headers in front of them.
* ``ir-deparser-missing`` / ``ir-deparser-order`` — frames must be
  re-serialized once, at the end of the pipeline.
* ``ir-key-width`` — a table cannot match more key bits than the parser
  extracts.
* ``ir-missing-checksum`` — rewriting IP/TCP/UDP fields without the
  RFC 1624 update unit emits corrupt frames on the wire.
* ``ir-chain-depth`` — the paper's §5.3 guidance: 3-4 match-action chain
  stages per PPE.
* ``ir-redundant-stage`` — stages the optimization passes would merge or
  delete (run :func:`~repro.hls.passes.optimize` before building).
* ``ir-resource-fit`` — a pre-synthesis estimate against the device
  catalog, attributing any overflow to the stages that caused it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.shells import ShellSpec
from ..errors import CompileError, ResourceError
from ..fpga.resources import FPGADevice, MPF200T, ResourceVector
from ..hls.ir import PipelineSpec, StageKind
from ..packet import IPv4, IPv6, TCP, UDP
from .findings import Finding, Severity, sort_findings

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..hls.compiler import Price

# The paper's §5.3 guidance: chains of 3-4 match-action stages fit the
# per-PPE budget; deeper chains should be split across PPEs.
MAX_CHAIN_DEPTH = 4

# Rewriting any of these headers' fields perturbs an internet checksum
# (IPv4 header checksum, or the TCP/UDP pseudo-header/payload checksum),
# so the pipeline must carry a CHECKSUM stage to fix frames up.
CHECKSUM_RELEVANT_HEADERS = (IPv4, IPv6, TCP, UDP)

_TABLE_KINDS = (
    StageKind.EXACT_TABLE,
    StageKind.LPM_TABLE,
    StageKind.TERNARY_TABLE,
)


def _loc(spec: PipelineSpec, stage_name: str | None = None) -> str:
    return f"{spec.name}:{stage_name}" if stage_name else spec.name


def _check_structure(spec: PipelineSpec) -> list[Finding]:
    findings: list[Finding] = []
    kinds = [stage.kind for stage in spec.stages]

    needs_parser = [
        stage
        for stage in spec.stages
        if stage.kind in _TABLE_KINDS or stage.kind is StageKind.ACTION
    ]
    parser_index = next(
        (i for i, kind in enumerate(kinds) if kind is StageKind.PARSER), None
    )
    if needs_parser and parser_index is None:
        findings.append(
            Finding(
                rule="ir-no-parser",
                severity=Severity.ERROR,
                location=_loc(spec, needs_parser[0].name),
                message=(
                    f"stage {needs_parser[0].name!r} matches/rewrites headers "
                    "but the pipeline has no parser"
                ),
                hint="add a PARSER stage sized for the headers the app touches",
            )
        )
    elif parser_index is not None:
        for i, stage in enumerate(spec.stages[:parser_index]):
            if stage.kind in _TABLE_KINDS or stage.kind is StageKind.ACTION:
                findings.append(
                    Finding(
                        rule="ir-parser-order",
                        severity=Severity.ERROR,
                        location=_loc(spec, stage.name),
                        message=(
                            f"stage {stage.name!r} ({stage.kind.value}) runs "
                            "before the parser has extracted any headers"
                        ),
                        hint="move the PARSER stage to the front of the pipeline",
                    )
                )

    if StageKind.DEPARSER not in kinds:
        findings.append(
            Finding(
                rule="ir-deparser-missing",
                severity=Severity.WARNING,
                location=_loc(spec),
                message="pipeline never re-serializes frames (no DEPARSER stage)",
                hint="append a DEPARSER sized like the parser",
            )
        )
    else:
        deparser_index = kinds.index(StageKind.DEPARSER)
        for stage in spec.stages[deparser_index + 1 :]:
            if stage.kind not in (StageKind.FIFO, StageKind.DEPARSER):
                findings.append(
                    Finding(
                        rule="ir-deparser-order",
                        severity=Severity.ERROR,
                        location=_loc(spec, stage.name),
                        message=(
                            f"stage {stage.name!r} ({stage.kind.value}) follows "
                            "the deparser; headers are already serialized"
                        ),
                        hint="only FIFOs may follow the deparser",
                    )
                )
    return findings


def _check_key_widths(spec: PipelineSpec) -> list[Finding]:
    parsed_bits = 8 * sum(
        stage.param("header_bytes") for stage in spec.stages_of(StageKind.PARSER)
    )
    if parsed_bits == 0:
        return []
    findings = []
    for stage in spec.table_stages():
        key_bits = stage.param("key_bits")
        if key_bits > parsed_bits:
            findings.append(
                Finding(
                    rule="ir-key-width",
                    severity=Severity.ERROR,
                    location=_loc(spec, stage.name),
                    message=(
                        f"table matches {key_bits} key bits but the parser "
                        f"only extracts {parsed_bits} header bits"
                    ),
                    hint="widen the parser or narrow the table key",
                )
            )
    return findings


def _check_checksum(
    spec: PipelineSpec, rewrites: list[tuple[type, str]] | None
) -> list[Finding]:
    has_checksum = bool(spec.stages_of(StageKind.CHECKSUM))
    if has_checksum:
        return []
    if rewrites is not None:
        touched = sorted(
            {
                f"{header.__name__}.{field}"
                for header, field in rewrites
                if header in CHECKSUM_RELEVANT_HEADERS
            }
        )
        if touched:
            return [
                Finding(
                    rule="ir-missing-checksum",
                    severity=Severity.ERROR,
                    location=_loc(spec),
                    message=(
                        "rewrites checksummed fields "
                        f"({', '.join(touched)}) without a CHECKSUM stage"
                    ),
                    hint="declare uses_checksum=True / add a CHECKSUM stage",
                )
            ]
        return []
    # No field-level knowledge: an ACTION without checksum hardware is only
    # advisory (VLAN/Ethernet rewrites legitimately need none).
    if spec.stages_of(StageKind.ACTION):
        return [
            Finding(
                rule="ir-missing-checksum",
                severity=Severity.INFO,
                location=_loc(spec),
                message=(
                    "pipeline rewrites headers but has no CHECKSUM stage; "
                    "fine only if no IP/TCP/UDP field is touched"
                ),
                hint="add a CHECKSUM stage if L3/L4 fields are rewritten",
            )
        ]
    return []


def _check_chain_depth(spec: PipelineSpec) -> list[Finding]:
    depth = spec.chain_depth
    if depth <= MAX_CHAIN_DEPTH:
        return []
    return [
        Finding(
            rule="ir-chain-depth",
            severity=Severity.WARNING,
            location=_loc(spec),
            message=(
                f"match-action chain is {depth} stages deep; the paper "
                f"budgets {MAX_CHAIN_DEPTH} per PPE (§5.3)"
            ),
            hint="split the chain across PPEs or merge tables",
        )
    ]


def _check_redundant_stages(spec: PipelineSpec) -> list[Finding]:
    # Run the optimization passes directly (not optimize(), which also
    # prices the spec — dead stages like a zero-counter bank are exactly
    # the ones the cost model refuses to price).
    from ..hls.passes import ALL_PASSES

    stages = list(spec.stages)
    for _ in range(16):
        new_stages = stages
        for pass_fn in ALL_PASSES:
            new_stages = pass_fn(new_stages)
        if new_stages == stages:
            break
        stages = new_stages
    if len(stages) >= len(spec.stages):
        return []
    removed = sorted(
        {s.name for s in spec.stages} - {s.name for s in stages}
    )
    return [
        Finding(
            rule="ir-redundant-stage",
            severity=Severity.WARNING,
            location=_loc(spec),
            message=(
                f"{len(spec.stages) - len(stages)} stage(s) are dead "
                f"or mergeable ({', '.join(removed)})"
            ),
            hint="run repro.hls.optimize() before building",
        )
    ]


def _check_resource_fit(
    spec: PipelineSpec,
    device: FPGADevice,
    shell: ShellSpec | None,
    price: Price | None,
) -> list[Finding]:
    if price is None:
        return []
    app_total, per_stage = price
    components = [app_total]
    if shell is not None:
        components.extend(vec for _, vec in sorted(shell.base_components().items()))
    total = ResourceVector.sum(components)
    over_keys = [
        key
        for key, used in total.as_dict().items()
        if used > getattr(device, key)
    ]
    if not over_keys:
        return []
    findings = []
    for key in over_keys:
        used = getattr(total, key)
        # Attribute the overflow: which stages consume this resource most.
        contributions = sorted(
            (
                (getattr(vec, key), name)
                for name, vec in per_stage.items()
                if getattr(vec, key) > 0
            ),
            reverse=True,
        )
        top = ", ".join(f"{name}={amount}" for amount, name in contributions[:3])
        findings.append(
            Finding(
                rule="ir-resource-fit",
                severity=Severity.ERROR,
                location=_loc(spec),
                message=(
                    f"resource overflow: estimated {key} usage {used} exceeds "
                    f"{device.name} capacity {getattr(device, key)}"
                    + (f"; biggest stages: {top}" if top else "")
                ),
                hint="shrink the named stages or target a larger device",
            )
        )
    return findings


def verify_pipeline(
    spec: PipelineSpec,
    device: FPGADevice = MPF200T,
    shell: ShellSpec | None = None,
    datapath_bits: int | None = None,
    rewrites: list[tuple[type, str]] | None = None,
) -> list[Finding]:
    """Run every IR rule over ``spec``; return sorted findings.

    ``rewrites`` (header type, field) pairs — available when the spec was
    lowered from an :class:`~repro.hls.xdp.XdpProgram` — upgrade the
    checksum rule from advisory to exact.  ``shell`` includes the shell's
    base components in the resource-fit estimate, matching what
    :func:`~repro.hls.compiler.compile_pipeline` will build.
    """
    return _verify_priced(spec, device, shell, datapath_bits, rewrites)[0]


def _verify_priced(
    spec: PipelineSpec,
    device: FPGADevice,
    shell: ShellSpec | None,
    datapath_bits: int | None,
    rewrites: list[tuple[type, str]] | None,
) -> tuple[list[Finding], Price | None]:
    """:func:`verify_pipeline`'s findings, and the ``price_pipeline``
    result its resource-fit rule took (``None`` if ``spec`` is
    unpriceable), so a build can synthesize without pricing again."""
    from ..hls.compiler import price_pipeline

    if datapath_bits is None:
        datapath_bits = shell.datapath_bits if shell is not None else 64
    try:
        price = price_pipeline(spec, datapath_bits)
    except (CompileError, ResourceError):
        price = None  # unpriceable specs already carry structural errors
    findings = _check_structure(spec)
    findings += _check_key_widths(spec)
    findings += _check_checksum(spec, rewrites)
    findings += _check_chain_depth(spec)
    findings += _check_redundant_stages(spec)
    findings += _check_resource_fit(spec, device, shell, price)
    return sort_findings(findings), price
