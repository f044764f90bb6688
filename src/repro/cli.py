"""Command-line interface: feasibility reports from the terminal.

``python -m repro.cli <command>`` (or the ``flexsfp`` console script)
exposes the toolkit's analysis surface without writing any code:

* ``apps`` / ``devices`` — what can be built, and on what.
* ``build APP`` — run the build flow, print the Table-1-style report.
* ``paper WHAT`` — regenerate one of the paper's artefacts: ``table1`` /
  ``table2`` / ``table3``, the §5 ``power`` series, the ``bom`` cost
  breakdown, ``scale GBPS`` (the §5.3 operating point for a line rate)
  and ``envelope GBPS`` (the §6 form-factor power envelopes).  Each is
  computed by one library function (:data:`PAPER` names them) that the
  benches call too; the CLI renders what it returns.
* ``chaos PLAN`` — replay a named fault plan through the chaos gauntlet.
* ``metrics`` — run an instrumented scenario, export its registry.
* ``trace`` — per-packet stage spans through a scenario, as JSON Lines.
* ``check`` — static verification: IR rules and XDP-program analysis over
  applications and example sources, or (``--self``) the determinism
  linter over the toolkit's own sim-critical source.
* ``run`` — supervised sharded fleet run: per-shard deadlines, bounded
  deterministic retry, ``--checkpoint``/``--resume`` journalling, and a
  distinct exit code (``4``) when retries were exhausted and the merged
  artifact is explicitly partial.
* ``matrix`` — run the declared tier sweep (:func:`repro.matrix.declared`)
  on both tiers, diff each compiled cell against its reference cell,
  write (``--record``) or check (``--against``) the per-cell semantic
  digests, and exit ``5`` on any semantic divergence.
* ``diff`` — compare two saved ``flexsfp.run/1`` artifacts; exit ``5``
  when they diverge semantically, ``0`` when identical or timing-only.

Every subcommand accepts ``--json``: the human table renderer is swapped
for a single canonical schema-tagged JSON document on stdout, built by
:mod:`repro.obs.export`.  The run-producing commands (``run``, ``chaos``,
``matrix``) all emit the unified ``flexsfp.run/1`` artifact — one
document shape for every entry point, diffable with ``flexsfp diff``.

A command pays for the code it runs.  This module imports the standard
library, ``_util`` and ``errors`` only; :data:`COMMANDS` is the one table
a subcommand is registered in, ``(name, help, configure, handler)``:
``configure(parser)`` adds the arguments (importing the registries their
``choices=`` read), ``handler(args)`` imports what it executes and returns
an exit code or a :class:`~repro._util.Report` to render, and :func:`main`
configures only the subcommand (under ``paper``, the artefact) named on
the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ._util import Report, write_text_atomic
from .errors import ConfigError, ReproError

# Exit codes beyond the usual 0/1/2: a supervised fleet run that lost
# shards completes and writes its artifact, but says so unmistakably
# (4); a matrix or artifact diff that found *semantic* divergence —
# different computed results, not just timings — says so with 5.
EXIT_PARTIAL = 4
EXIT_DIVERGED = 5


# ----------------------------------------------------------------------
# Renderers: every tabular command goes through _emit (one of two
# renderers — the aligned-text table or a canonical JSON document).
# ----------------------------------------------------------------------
def _print_rows(headers: tuple[str, ...], rows: list[tuple]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))


def _emit(args: argparse.Namespace, report: Report) -> int:
    """Render one :class:`~repro._util.Report`; returns its exit code.

    Text blocks (default: the one table) or the ``flexsfp.table/1`` JSON
    document.  The report's builder owns the numbers, this only prints.
    """
    if args.json:
        from .obs.export import table_json

        extra = report.extra or {}
        print(table_json(report.title, report.headers, report.rows, **extra))
    else:
        for block in report.text or ((report.headers, report.rows),):
            if isinstance(block, str):
                print(block)
            else:
                _print_rows(*block)
    return 0 if report.ok else 1


def _shell_kinds() -> dict:
    from .core.shells import ShellKind

    return {kind.value: kind for kind in ShellKind}


def _shell_from_args(args: argparse.Namespace):
    from .core.shells import ControlPlaneClass, ShellSpec

    return ShellSpec(
        kind=_shell_kinds()[args.shell],
        line_rate_bps=args.rate * 1e9,
        datapath_bits=args.width,
        control_plane=(
            ControlPlaneClass.SOC if getattr(args, "soc", False) else ControlPlaneClass.SOFTCORE
        ),
    )


def _compile(app: str, shell, **options):
    from .apps import create_app
    from .hls.compiler import compile_app

    return compile_app(create_app(app), shell, **options)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_apps(args: argparse.Namespace) -> Report:
    from .apps import APP_FACTORIES, create_app

    rows = []
    for name in sorted(APP_FACTORIES):
        app = create_app(name)
        spec = app.pipeline_spec()
        rows.append((name, spec.chain_depth, spec.pipeline_depth, spec.description))
    headers = ("application", "chain", "stages", "description")
    return Report("apps", headers, rows)


def cmd_devices(args: argparse.Namespace) -> Report:
    from .fpga.resources import DEVICES

    rows = [
        (
            d.name,
            f"{d.logic_elements:,}",
            f"{d.lut4:,}",
            d.usram,
            d.lsram,
            f"{d.sram_kbit / 1024:.1f} Mb",
            f"${d.unit_price_usd:.0f}",
        )
        for d in DEVICES.values()
    ]
    headers = ("device", "LE", "4LUT", "uSRAM", "LSRAM", "SRAM", "price")
    return Report("devices", headers, rows)


def cmd_build(args: argparse.Namespace) -> Report:
    """Build ``args.app`` and frame ``SynthesisReport.table1_rows()``."""
    from .fpga.resources import get_device

    shell = _shell_from_args(args)
    device = get_device(args.device)
    report = _compile(
        args.app,
        shell,
        device=device,
        clock_hz=args.clock * 1e6 if args.clock else None,
        strict=False,
        flow_cache_entries=getattr(args, "cache_entries", None),
    ).report
    headers = ("component", "4LUT", "FF", "uSRAM", "LSRAM")
    rows = [tuple(row) for row in report.table1_rows()]
    clock_mhz = report.timing.clock_hz / 1e6
    extra = {
        "app": args.app,
        "device": device.name,
        "shell": shell.kind.value,
        "datapath_bits": report.timing.datapath_bits,
        "clock_mhz": clock_mhz,
        "utilization": dict(report.utilization),
        "fits": report.fits,
        "meets_timing": report.meets_timing,
        "notes": list(report.notes),
    }
    util = ", ".join(f"{k} {v:.0%}" for k, v in report.utilization.items())
    text = (
        f"{args.app} on {device.name} / {shell.kind.value}: "
        f"{report.timing.datapath_bits} b @ {clock_mhz:.2f} MHz",
        (headers, rows),
        f"utilization: {util}",
        f"fits: {report.fits}   meets timing: {report.meets_timing}",
        *(f"note: {note}" for note in report.notes),
    )
    ok = report.fits and report.meets_timing
    return Report("build", headers, rows, extra, text, ok)


# ----------------------------------------------------------------------
# The paper's artefacts.  Each has one owner in the library that returns
# the rows as the paper prints them; these only hand it the arguments.
# ----------------------------------------------------------------------
def _paper_table1(args: argparse.Namespace) -> Report:
    args.app, args.device, args.clock = "nat", "MPF200T", None
    return cmd_build(args)


def _paper_table2(args: argparse.Namespace) -> Report:
    from .fpga.literature import table2_report

    return table2_report()


def _paper_table3(args: argparse.Namespace) -> Report:
    from .costmodel.comparables import table3_report

    return table3_report(args.units)


def _paper_power(args: argparse.Namespace) -> Report:
    from .core.shells import ShellSpec
    from .testbed.power import PowerTestbed

    build = _compile(args.app, ShellSpec()).report
    report = PowerTestbed().paper_report(build.total, build.timing.clock_hz)
    return report._replace(extra={"app": args.app})


def _paper_bom(args: argparse.Namespace) -> Report:
    from .costmodel.bom import FlexSfpBom

    return FlexSfpBom().report(args.units)


def _paper_scale(args: argparse.Namespace) -> Report:
    from .core.shells import operating_point_report

    return operating_point_report(args.gbps)


def _paper_envelope(args: argparse.Namespace) -> Report:
    from .core.shells import ShellSpec
    from .fpga.formfactor import envelope_report

    shell = ShellSpec(line_rate_bps=args.gbps * 1e9, datapath_bits=args.width)
    clock_hz = args.clock * 1e6 if args.clock else None
    build = _compile(args.app, shell, clock_hz=clock_hz, strict=False).report
    report = envelope_report(args.gbps, build.total, build.timing.clock_hz)
    return report._replace(extra={"app": args.app, **report.extra})


def cmd_chaos(args: argparse.Namespace) -> int:
    from .artifact.run import artifact_from_scenario_run
    from .faults.plan import NAMED_PLANS
    from .obs.scenario import ScenarioSpec

    plan = NAMED_PLANS[args.plan](args.seed)
    # The gauntlet runs through the instrumented chaos scenario (same
    # run_gauntlet invocation, same defaults, plus a metrics registry) so
    # the chaos CLI emits the same flexsfp.run/1 artifact as `flexsfp
    # run` and the benches.
    run = ScenarioSpec(
        kind="chaos",
        fault_plan=args.plan,
        seed=args.seed,
        engine=args.engine,
    ).run()
    result = run.summary
    findings = [
        {"time_s": e.time_s, "kind": e.kind, "target": e.target} for e in plan
    ]
    artifact = artifact_from_scenario_run(
        run, source="chaos-gauntlet", findings=findings
    )
    metric_rows = [
        ("packets sent", result["packets_sent"]),
        ("packets lost", result["packets_lost"]),
        ("loss fraction", f"{result['loss_fraction']:.4f}"),
        ("damage incidents", result["incidents"]),
        ("fleet repairs", result["repairs"]),
        ("self-healed fraction", f"{result['self_healed_fraction']:.2f}"),
        ("recovery time (ms)", f"{result['recovery_time_s'] * 1e3:.1f}"),
        ("watchdog reboots", result["watchdog_reboots"]),
        ("failed boots", result["failed_boots"]),
        ("healthy at end", result["healthy_at_end"]),
    ]
    document = artifact.document()
    if args.out is not None:
        write_text_atomic(args.out, document + "\n")
    if args.json:
        print(document)
        return 0
    print(f"plan {args.plan!r} seed={args.seed} sig={plan.signature()[:16]}…")
    _print_rows(
        ("t (ms)", "fault", "target"),
        [(f"{e.time_s * 1e3:.1f}", e.kind, e.target) for e in plan],
    )
    print()
    _print_rows(("metric", "value"), metric_rows)
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def _nfv_deployment(args: argparse.Namespace, device):
    from .nfv import Deployment, default_nfv_tenants

    tenants = default_nfv_tenants()
    if args.tenants is not None:
        try:
            tenants = json.loads(Path(args.tenants).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot read tenants file {args.tenants}: {exc}"
            ) from exc
    return Deployment.from_dicts(tenants, device=device)


def cmd_check(args: argparse.Namespace) -> Report:
    """Select the checks, concatenate what their builders return."""
    from .analysis.findings import findings_report

    apps, examples_dir = list(args.apps), args.examples
    # Bare `flexsfp check` sweeps everything shippable: every registered
    # application plus any XDP packet functions in ./examples.
    if not (apps or args.self_lint or args.nfv) and examples_dir is None:
        from .apps import APP_FACTORIES

        apps = sorted(APP_FACTORIES)
        if Path("examples").is_dir():
            examples_dir = "examples"
    device = shell = None
    if apps or args.nfv:  # --self and --examples check no build target
        from .fpga.resources import get_device

        device, shell = get_device(args.device), _shell_from_args(args)
    # check -> (findings, targets, extra, text), in target order.
    parts: dict[str, tuple] = {}
    if args.nfv:
        from .nfv.pricing import deployment_report

        parts["nfv"] = deployment_report(_nfv_deployment(args, device), shell, device)
    if args.self_lint:
        from .analysis.simlint import default_lint_root, lint_paths

        root = default_lint_root()
        parts["self"] = (lint_paths([root]), [f"self:{root}"], {}, [])
    if apps or args.effects or args.fusibility:
        from .analysis.appcheck import apps_report

        parts["apps"] = apps_report(apps, device, shell, args.effects, args.fusibility)
    if examples_dir is not None:
        from .analysis.xdpcheck import scan_source_file

        paths = sorted(Path(examples_dir).glob("*.py"))
        found = [finding for path in paths for finding in scan_source_file(path)]
        parts["examples"] = (found, [f"example:{path}" for path in paths], {}, [])
    findings = [finding for found, *_ in parts.values() for finding in found]
    targets = [target for _, names, *_ in parts.values() for target in names]
    extra = {key: value for *_, more, _ in parts.values() for key, value in more.items()}
    # The analysis text prints above the NFV price, both above the findings.
    text = [line for name in ("apps", "nfv") if name in parts for line in parts[name][3]]
    return findings_report(findings, targets, extra, text)


def cmd_metrics(args: argparse.Namespace) -> int:
    from .obs.export import metrics_json, metrics_jsonl, prometheus_text
    from .obs.scenario import ScenarioSpec

    spec = ScenarioSpec(kind=args.scenario, engine=args.engine, profile=args.profile)
    metrics = spec.run().metrics()
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(metrics_json(metrics))
    elif fmt == "jsonl":
        print(metrics_jsonl(metrics))
    else:
        print(prometheus_text(metrics), end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs.export import SCHEMA_TRACE, json_document
    from .obs.scenario import ScenarioSpec

    run = ScenarioSpec(
        kind=args.scenario,
        trace_packets=args.packets,
        engine=args.engine,
    ).run()
    tracer = run.tracer
    if args.json:
        print(json_document(SCHEMA_TRACE, spans=tracer.to_dicts()))
        return 0
    jsonl = tracer.to_jsonl()
    if jsonl:
        print(jsonl)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .obs.scenario import ScenarioSpec
    from .parallel import SupervisorPolicy, load_journal, run_sharded

    if args.resume is not None:
        # The journal *is* the spec: resume re-runs exactly what the
        # interrupted campaign recorded, never what today's flags say.
        spec, _completed = load_journal(args.resume)
    else:
        spec = ScenarioSpec(
            kind=args.scenario,
            seed=args.seed,
            shards=args.shards,
            fault_plan=args.plan,
            engine=args.engine,
        )
    # A flag left unset keeps the dataclass default; 0 disables the deadline.
    flags = {
        "shard_timeout_s": args.shard_timeout or None,
        "max_retries": args.max_retries,
    }
    policy = SupervisorPolicy(**{k: v for k, v in flags.items() if v is not None})
    result = run_sharded(
        spec,
        workers=args.workers,
        start_method=args.start_method,
        policy=policy,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    document = result.to_artifact().document()
    if args.out is not None:
        # Atomic: a run killed mid-write never leaves a truncated artifact.
        write_text_atomic(args.out, document + "\n")
    exit_code = 0 if result.ok else EXIT_PARTIAL
    if args.json:
        print(document)
        return exit_code
    print(
        f"{spec.kind} x{result.spec.shards} shard(s), {result.workers} worker(s), "
        f"seed={result.spec.seed} ({result.wall_s:.2f} s)"
    )
    _print_rows(
        ("shard", "seed", "digest"),
        [(s.index, s.seed, s.digest[:16]) for s in result.shards],
    )
    print()
    merged_rows = [(name, value) for name, value in result.merged_metrics.items()]
    if merged_rows:
        _print_rows(("merged metric", "value"), merged_rows)
    for name, state in result.merged_histograms.items():
        total = sum(state["counts"])
        print(f"histogram {name}: {total} samples across {len(state['bounds'])} buckets")
    completeness = result.completeness
    if completeness is not None:
        if completeness.resumed:
            print(
                f"resumed {len(completeness.resumed)} shard(s) from checkpoint: "
                f"{list(completeness.resumed)}"
            )
        if completeness.retries:
            print(f"supervisor retries: {completeness.retries}")
        if not completeness.ok:
            print(
                f"PARTIAL RESULT: {completeness.completed}/{completeness.shards} "
                f"shards completed; failed: {list(completeness.failed_indices)}"
            )
            for failure in completeness.failed:
                print(
                    f"  shard {failure.index} (seed {failure.seed}) gave up "
                    f"after {failure.attempts} attempt(s): "
                    f"{', '.join(failure.reasons)}"
                )
    if args.out is not None:
        print(f"wrote {args.out}")
    return exit_code


def cmd_matrix(args: argparse.Namespace) -> int:
    from .matrix import compare, labels, load_against, run_declared

    # A bad --against file fails before any cell runs.
    against = None if args.against is None else load_against(args.against)
    progress = None
    if not args.json:
        total = len(labels(args.scenario))

        def progress(label: str, _counter=iter(range(1, total + 1))) -> None:
            print(f"[{next(_counter)}/{total}] {label}")

    result = run_declared(args.scenario, progress)
    lines, diverged = ([], []) if against is None else compare(result, against)
    if args.out is not None:
        write_text_atomic(args.out, result.document() + "\n")
    if args.record is not None:
        record = json.dumps(result.record(), sort_keys=True, indent=1)
        write_text_atomic(args.record, record + "\n")
    exit_code = 0 if result.ok else EXIT_PARTIAL
    if result.diverged or diverged:
        exit_code = EXIT_DIVERGED
    if args.json:
        payload = result.to_dict()
        if against is not None:
            payload["against"] = {"file": args.against, "diverged": diverged, "lines": lines}
        print(json.dumps(payload, sort_keys=True, default=str))
        return exit_code
    print()
    _print_rows(
        ("cell", "verdict", "semantic", "timing-only", "complete"),
        result.rows(),
    )
    counts = result.counts()
    print(
        f"\n{counts['cells']} cell(s), each against its sweep's first: "
        f"{counts['diverged']} diverged, {counts['partial']} partial "
        f"-> {result.verdict}"
    )
    for cell in result.diverged_cells:
        for entry in cell.diff.semantic_entries:
            print(f"  {cell.label}: {entry.kind.value} {entry.name}: {entry.a!r} != {entry.b!r}")
    if against is not None:
        print(f"\nagainst {args.against}:")
        for line in lines:
            print(f"  {line}")
        print(f"{len(diverged)} cell(s) diverged from {args.against}")
    for written in (args.out, args.record):
        if written is not None:
            print(f"wrote {written}")
    return exit_code


def cmd_diff(args: argparse.Namespace) -> int:
    from .artifact import diff_artifacts, load_artifact
    from .obs.export import SCHEMA_DIFF, json_document

    a = load_artifact(args.a)
    b = load_artifact(args.b)
    diff = diff_artifacts(a, b)
    exit_code = EXIT_DIVERGED if diff.diverged else 0
    if args.json:
        print(json_document(SCHEMA_DIFF, **diff.to_dict()))
        return exit_code
    print(f"A: {args.a} ({a.source}, seed={a.seed}, spec={a.spec_digest[:12]})")
    print(f"B: {args.b} ({b.source}, seed={b.seed}, spec={b.spec_digest[:12]})")
    if diff.entries:
        _print_rows(
            ("kind", "field", "A", "B"),
            [
                (entry.kind.value, entry.name, entry.a, entry.b)
                for entry in diff.entries
            ],
        )
    for note in diff.notes:
        print(f"note: {note}")
    counts = diff.counts()
    semantic = sum(
        count for kind, count in counts.items() if kind != "timing-only"
    )
    print(
        f"verdict: {diff.verdict} "
        f"({semantic} semantic, {counts.get('timing-only', 0)} timing-only)"
    )
    return exit_code


# ----------------------------------------------------------------------
# Arguments: one function per subcommand that takes any.  Each imports
# only the registries its own ``choices=`` read.
# ----------------------------------------------------------------------
def _add_engine(parser: argparse.ArgumentParser) -> None:
    from .engine import ENGINES

    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="engine tier (default: FLEXSFP_ENGINE, then reference)",
    )


def _args_target(parser: argparse.ArgumentParser) -> None:
    """The build target `build` and `check` share (see _shell_from_args)."""
    parser.add_argument(
        "--shell", choices=sorted(_shell_kinds()), default="one-way-filter"
    )
    parser.add_argument("--device", default="MPF200T")
    parser.add_argument("--rate", type=float, default=10.0, help="line rate in Gbps")
    parser.add_argument("--width", type=int, default=64, help="datapath bits")
    parser.add_argument("--soc", action="store_true", help="SoC-class control plane")


def _args_build(build: argparse.ArgumentParser) -> None:
    from .apps import APP_FACTORIES

    build.add_argument("app", choices=sorted(APP_FACTORIES))
    _args_target(build)
    build.add_argument("--clock", type=float, default=None, help="PPE clock in MHz")
    build.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        help="include a flow cache of this many entries in the build",
    )


def _args_table1(t1: argparse.ArgumentParser) -> None:
    t1.add_argument("--shell", default="one-way-filter")
    t1.add_argument("--rate", type=float, default=10.0)
    t1.add_argument("--width", type=int, default=64)


def _args_units(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--units", type=int, default=1_000)


def _args_app(parser: argparse.ArgumentParser) -> None:
    from .apps import APP_FACTORIES

    parser.add_argument("--app", choices=sorted(APP_FACTORIES), default="nat")


def _args_gbps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("gbps", type=float)


def _args_envelope(envelope: argparse.ArgumentParser) -> None:
    _args_gbps(envelope)
    _args_app(envelope)
    envelope.add_argument("--width", type=int, default=64)
    envelope.add_argument("--clock", type=float, default=None, help="MHz")


# The paper-artefact table, the one place `flexsfp paper <what>` is
# registered: rows shaped like COMMANDS', nested under its `paper` row.
PAPER = (
    ("table1", "reproduce the paper's Table 1", _args_table1, _paper_table1),
    ("table2", "reproduce the paper's Table 2", None, _paper_table2),
    ("table3", "reproduce the paper's Table 3", _args_units, _paper_table3),
    ("power", "the §5 power series for an app", _args_app, _paper_power),
    ("bom", "FlexSFP cost breakdown", _args_units, _paper_bom),
    ("scale", "plan an operating point for a line rate", _args_gbps, _paper_scale),
    ("envelope", "check MSA power envelopes for a rate/app", _args_envelope, _paper_envelope),
)  # fmt: skip


def _args_chaos(chaos: argparse.ArgumentParser) -> None:
    from .faults.plan import NAMED_PLANS

    chaos.add_argument("plan", choices=sorted(NAMED_PLANS))
    chaos.add_argument("--seed", type=int, default=1)
    _add_engine(chaos)
    chaos.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the flexsfp.run/1 artifact to FILE (atomic)",
    )


def _args_check(check: argparse.ArgumentParser) -> None:
    check.add_argument(
        "apps",
        nargs="*",
        metavar="APP",
        help="applications to verify (default: all, plus ./examples)",
    )
    check.add_argument(
        "--self",
        action="store_true",
        dest="self_lint",
        help="run the determinism linter over the repro source tree",
    )
    check.add_argument(
        "--examples",
        nargs="?",
        const="examples",
        default=None,
        metavar="DIR",
        help="scan a directory of example sources for XDP packet functions",
    )
    check.add_argument(
        "--effects",
        action="store_true",
        help="print the per-stage effect report and line-rate verdict",
    )
    check.add_argument(
        "--fusibility",
        action="store_true",
        help="print the derived fusibility proof per application",
    )
    check.add_argument(
        "--nfv",
        action="store_true",
        help="check a multi-tenant NFV deployment (crossbar + per-slot "
        "partitions priced against the device, per-tenant line rate)",
    )
    check.add_argument(
        "--tenants",
        default=None,
        metavar="FILE",
        help="JSON list of tenant specs for --nfv (default: the bundled "
        "scrub + telemetry pair)",
    )
    _args_target(check)


def _args_metrics(metrics: argparse.ArgumentParser) -> None:
    from .obs.scenario import SCENARIOS

    metrics.add_argument("--scenario", choices=SCENARIOS, default="nat-linerate")
    metrics.add_argument(
        "--format",
        choices=("prom", "json", "jsonl"),
        default="prom",
        help="export format (--json forces json)",
    )
    _add_engine(metrics)
    metrics.add_argument(
        "--profile",
        action="store_true",
        help="attach the event-loop profiler (sim.profile.* metrics)",
    )


def _args_trace(trace: argparse.ArgumentParser) -> None:
    from .obs.scenario import SCENARIOS

    trace.add_argument("--scenario", choices=SCENARIOS, default="nat-chain")
    trace.add_argument(
        "--packets", type=int, default=4, help="number of packets to trace"
    )
    _add_engine(trace)


def _args_run(run: argparse.ArgumentParser) -> None:
    from .faults.plan import NAMED_PLANS
    from .obs.scenario import SCENARIO_KINDS

    run.add_argument("--scenario", choices=sorted(SCENARIO_KINDS), default="chaos")
    run.add_argument("--shards", type=int, default=4, help="independent instances")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default: 1)",
    )
    run.add_argument("--seed", type=int, default=1, help="root seed")
    run.add_argument(
        "--plan",
        choices=sorted(NAMED_PLANS),
        default=None,
        help="fault plan for the chaos scenario (default: smoke)",
    )
    _add_engine(run)
    run.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        dest="start_method",
        help="multiprocessing start method (default: fork where available)",
    )
    run.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the flexsfp.run/1 artifact to FILE "
        "(atomic: temp file + rename)",
    )
    run.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        dest="shard_timeout",
        metavar="SECONDS",
        help="per-shard deadline; hung/straggling workers are killed and "
        "retried (default: no deadline; 0 says the same)",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        dest="max_retries",
        metavar="N",
        help="retries per failed shard beyond the first attempt "
        "(default: 2)",
    )
    run.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="journal each completed shard to FILE (flexsfp.journal/1 "
        "JSON Lines) so a killed run can be resumed",
    )
    run.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="resume from a checkpoint journal: re-run only its missing/"
        "failed shards (the journalled spec wins over scenario flags) and "
        "keep journalling into the same file",
    )


def _args_matrix(matrix: argparse.ArgumentParser) -> None:
    from .obs.scenario import SCENARIO_KINDS

    matrix.add_argument(
        "--scenario",
        choices=sorted(SCENARIO_KINDS),
        default=None,
        help="run only this kind's declared cells (default: every cell)",
    )
    matrix.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the flexsfp.matrix/1 document (every cell's artifact) to FILE",
    )
    matrix.add_argument(
        "--record",
        metavar="FILE",
        default=None,
        help="write {cell label: semantic digest} to FILE (the checked-in record)",
    )
    matrix.add_argument(
        "--against",
        metavar="FILE",
        default=None,
        help=f"check every cell against a record or an earlier --out document; "
        f"exit {EXIT_DIVERGED} on any divergence",
    )


def _args_diff(diff: argparse.ArgumentParser) -> None:
    diff.add_argument("a", metavar="A.json", help="baseline artifact")
    diff.add_argument("b", metavar="B.json", help="candidate artifact")


# ----------------------------------------------------------------------
# The subcommand table, the one place a subcommand is registered:
# (name, help, configure, handler).  configure(parser) adds the arguments
# (None: there are none; a table: that many nested subcommands), and
# handler(args) returns an exit code, or a Report for main to render.
# ----------------------------------------------------------------------
COMMANDS = (
    ("apps", "list deployable applications", None, cmd_apps),
    ("devices", "list the FPGA device catalog", None, cmd_devices),
    ("build", "build an application, print the report", _args_build, cmd_build),
    ("paper", "reproduce a table or sweep of the paper", PAPER, None),
    ("chaos", "replay a named fault plan through the chaos gauntlet", _args_chaos, cmd_chaos),
    ("check", "static verification: IR rules, XDP analysis, determinism lint", _args_check, cmd_check),
    ("metrics", "run an instrumented scenario, export its metrics registry", _args_metrics, cmd_metrics),
    ("trace", "per-packet stage spans through a scenario (JSON Lines)", _args_trace, cmd_trace),
    ("run", "sharded fleet-scale scenario run with merged metrics", _args_run, cmd_run),
    ("matrix", "run the declared tier sweep, check it against a record", _args_matrix, cmd_matrix),
    ("diff", "compare two saved flexsfp.run/1 artifacts", _args_diff, cmd_diff),
)  # fmt: skip


def _common(default) -> argparse.ArgumentParser:
    """Shared by every subcommand: swap the text renderer for one canonical
    schema-tagged JSON document on stdout."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=default,
        help="machine-readable JSON output",
    )
    return common


def _register(parser, dest: str, table: tuple, common, only: tuple[str, ...]) -> None:
    """Register ``table``'s rows, by name and help, as ``parser``'s subcommands.

    Arguments are configured for every row, or for the one ``only``'s first
    word names; a nested table is narrowed by the words after it.
    """
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, configure, handler in table:
        subparser = sub.add_parser(name, help=help_text, parents=[common])
        subparser.set_defaults(func=handler)
        if only and only[0] != name:
            continue
        if isinstance(configure, tuple):
            # --json is accepted after <what> too; SUPPRESS so that an absent
            # one does not overwrite `flexsfp paper --json <what>`.
            _register(subparser, "what", configure, _common(argparse.SUPPRESS), only[1:])
        elif configure is not None:
            configure(subparser)


def build_parser(*only: str) -> argparse.ArgumentParser:
    """The complete parser, or one that knows only ``only``'s arguments.

    Every subcommand is always registered by name and help string, so the
    top-level ``--help`` and argparse's unknown-command message do not
    depend on ``only``; ``main`` passes the subcommand named on the command
    line (and the artefact after ``paper``) so that parsing it imports what
    that one subcommand needs.
    """
    parser = argparse.ArgumentParser(
        prog="flexsfp", description="FlexSFP feasibility toolkit"
    )
    _register(parser, "command", COMMANDS, _common(False), only)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The parsers above a subcommand take no option with a value, so the
    # first words that are not options are the subcommand and, under
    # `paper`, the artefact (or typos argparse rejects).
    named = [arg for arg in argv if not arg.startswith("-")][:2] or [""]
    args = build_parser(*named).parse_args(argv)
    try:
        code = args.func(args)
        if isinstance(code, Report):
            code = _emit(args, code)
        sys.stdout.flush()  # a closed pipe must surface inside this try
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``flexsfp apps | head -1``).  Python flushes
        # stdout again at exit: point it at devnull so that stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
