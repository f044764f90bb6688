"""Command-line interface: feasibility reports from the terminal.

``python -m repro.cli <command>`` (or the ``flexsfp`` console script)
exposes the toolkit's analysis surface without writing any code:

* ``apps`` / ``devices`` — what can be built, and on what.
* ``build APP`` — run the build flow, print the Table-1-style report.
* ``table1`` / ``table2`` / ``table3`` — regenerate the paper's tables.
* ``power`` — the §5 power series for a deployed application.
* ``bom`` — the FlexSFP cost breakdown at a production volume.
* ``scale GBPS`` — plan an operating point for a target line rate.
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
* ``matrix`` — sweep engine/shards/workers/device/fault-plan
  axes over one scenario, diff every cell against a baseline cell, and
  exit ``5`` on semantic divergence (with ``--fail-on-diverged``).
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
``choices=`` read), ``handler(args)`` imports what it executes, and
:func:`main` configures only the subcommand named on the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ._util import write_text_atomic
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


def _emit(
    args: argparse.Namespace,
    title: str,
    headers: tuple[str, ...],
    rows: list[tuple],
    **extra: object,
) -> None:
    """Render one command result: text table or ``flexsfp.table/1`` JSON."""
    if getattr(args, "json", False):
        from .obs.export import table_json

        print(table_json(title, headers, rows, **extra))
    else:
        _print_rows(headers, rows)


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


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_apps(args: argparse.Namespace) -> int:
    from .apps import APP_FACTORIES, create_app

    rows = []
    for name in sorted(APP_FACTORIES):
        app = create_app(name)
        spec = app.pipeline_spec()
        rows.append((name, spec.chain_depth, spec.pipeline_depth, spec.description))
    _emit(args, "apps", ("application", "chain", "stages", "description"), rows)
    return 0


def cmd_devices(args: argparse.Namespace) -> int:
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
    _emit(
        args,
        "devices",
        ("device", "LE", "4LUT", "uSRAM", "LSRAM", "SRAM", "price"),
        rows,
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from .apps import create_app
    from .fpga.resources import get_device
    from .hls.compiler import compile_app
    from .obs.export import table_json

    app = create_app(args.app)
    shell = _shell_from_args(args)
    device = get_device(args.device)
    clock_hz = args.clock * 1e6 if args.clock else None
    result = compile_app(
        app,
        shell,
        device=device,
        clock_hz=clock_hz,
        strict=False,
        flow_cache_entries=getattr(args, "cache_entries", None),
    )
    report = result.report
    headers = ("component", "4LUT", "FF", "uSRAM", "LSRAM")
    rows = [tuple(row) for row in report.table1_rows()]
    if getattr(args, "json", False):
        print(
            table_json(
                "build",
                headers,
                rows,
                app=args.app,
                device=device.name,
                shell=shell.kind.value,
                datapath_bits=report.timing.datapath_bits,
                clock_mhz=report.timing.clock_hz / 1e6,
                utilization=dict(report.utilization),
                fits=report.fits,
                meets_timing=report.meets_timing,
                notes=list(report.notes),
            )
        )
        return 0 if report.fits and report.meets_timing else 1
    print(
        f"{args.app} on {device.name} / {shell.kind.value}: "
        f"{report.timing.datapath_bits} b @ {report.timing.clock_hz / 1e6:.2f} MHz"
    )
    _print_rows(headers, rows)
    util = ", ".join(f"{k} {v:.0%}" for k, v in report.utilization.items())
    print(f"utilization: {util}")
    print(f"fits: {report.fits}   meets timing: {report.meets_timing}")
    for note in report.notes:
        print(f"note: {note}")
    return 0 if report.fits and report.meets_timing else 1


def cmd_table1(args: argparse.Namespace) -> int:
    args.app = "nat"
    args.device = "MPF200T"
    args.clock = None
    return cmd_build(args)


def cmd_table2(args: argparse.Namespace) -> int:
    from .fpga.literature import table2_rows

    rows = [
        (
            r["name"],
            f"{r['logic_le']:,.0f}",
            f"{r['bram_kbit']:,.0f}",
            r["fit_class"],
        )
        for r in table2_rows()
    ]
    _emit(args, "table2", ("design", "logic (LE)", "BRAM (kbit)", "verdict"), rows)
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from .costmodel.comparables import table3_rows

    rows = [
        (
            r["solution"],
            f"{r['raw_usd'][0]:.0f}-{r['raw_usd'][1]:.0f}",
            r["raw_w"],
            f"{r['usd_per_10g'][0]:.0f}-{r['usd_per_10g'][1]:.0f}",
            r["w_per_10g"],
        )
        for r in table3_rows(units=args.units)
    ]
    _emit(
        args,
        "table3",
        ("solution", "raw $", "raw W", "$/10G", "W/10G"),
        rows,
        units=args.units,
    )
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    from .apps import create_app
    from .core.shells import ShellSpec
    from .hls.compiler import compile_app
    from .testbed.power import PowerTestbed

    app = create_app(args.app)
    build = compile_app(app, ShellSpec())
    testbed = PowerTestbed()
    samples = testbed.paper_series(build.report.total, build.report.timing.clock_hz)
    _emit(
        args,
        "power",
        ("configuration", "watts"),
        [(s.label, f"{s.watts:.3f}") for s in samples],
        app=args.app,
    )
    return 0


def cmd_bom(args: argparse.Namespace) -> int:
    from .costmodel.bom import FlexSfpBom

    bom = FlexSfpBom()
    rows = [
        (r["item"], r["low_usd"], r["high_usd"], f"{r['share_of_high']:.0%}")
        for r in bom.breakdown(args.units)
    ]
    low, high = bom.total_range(args.units)
    _emit(
        args,
        "bom",
        ("item", "low $", "high $", "share"),
        rows,
        units=args.units,
        total_low_usd=low,
        total_high_usd=high,
    )
    if not args.json:
        print(f"total at {args.units:,} units: ${low:.0f}-{high:.0f}")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    from .fpga.timing import TimingSpec
    from .obs.export import table_json

    line_rate = args.gbps * 1e9
    clocks = (156.25e6, 200e6, 250e6, 312.5e6, 400e6)
    candidates = []
    for clock in clocks:
        width = 8
        while width <= 2048:
            _, sustained = TimingSpec(width, clock).worst_case_frame(line_rate)
            if sustained:
                # Tie-break toward the lower clock (the prototype's choice:
                # 64 b @ 156.25 MHz rather than 32 b @ 312.5 MHz).
                candidates.append((width * clock, clock, width))
                break
            width *= 2
    headers = ("gbps", "width_bits", "clock_mhz", "raw_gbps")
    if not candidates:
        if args.json:
            print(table_json("scale", headers, [], gbps=args.gbps, feasible=False))
        else:
            print(f"no single-pipeline operating point sustains {args.gbps:.0f} Gbps")
        return 1
    _, clock, width = min(candidates)
    if args.json:
        row = (args.gbps, width, clock / 1e6, width * clock / 1e9)
        print(table_json("scale", headers, [row], gbps=args.gbps, feasible=True))
        return 0
    print(
        f"{args.gbps:.0f} Gbps -> {width} b datapath @ {clock / 1e6:.2f} MHz "
        f"(raw {width * clock / 1e9:.1f} Gbps)"
    )
    return 0


def cmd_envelope(args: argparse.Namespace) -> int:
    from .apps import create_app
    from .core.shells import ShellSpec
    from .fpga.formfactor import FORM_FACTORS, envelope_check
    from .hls.compiler import compile_app

    app = create_app(args.app)
    shell = ShellSpec(
        line_rate_bps=args.gbps * 1e9, datapath_bits=args.width
    )
    clock_hz = args.clock * 1e6 if args.clock else None
    build = compile_app(app, shell, clock_hz=clock_hz, strict=False)
    rows = []
    for form_factor in FORM_FACTORS.values():
        try:
            check = envelope_check(
                form_factor,
                args.gbps,
                build.report.total,
                build.report.timing.clock_hz,
            )
        except ConfigError:
            rows.append((form_factor.name, "-", form_factor.power_envelope_w, "no lanes"))
            continue
        rows.append(
            (
                form_factor.name,
                f"{check.total_w:.2f}",
                check.envelope_w,
                "fits" if check.fits else "over budget",
            )
        )
    _emit(
        args,
        "envelope",
        ("form factor", "module W", "envelope W", "verdict"),
        rows,
        app=args.app,
        gbps=args.gbps,
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .artifact.run import artifact_from_scenario_run
    from .faults.gauntlet import NAMED_PLANS
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


def cmd_check(args: argparse.Namespace) -> int:
    from .analysis.findings import severity_counts, sort_findings
    from .apps import APP_FACTORIES, create_app
    from .fpga.resources import get_device
    from .obs.export import table_json

    findings = []
    targets: list[str] = []
    apps = list(args.apps)
    examples_dir = args.examples
    # Bare `flexsfp check` sweeps everything shippable: every registered
    # application plus any XDP packet functions in ./examples.
    if not apps and not args.self_lint and examples_dir is None and not args.nfv:
        apps = sorted(APP_FACTORIES)
        if Path("examples").is_dir():
            examples_dir = "examples"
    nfv_price = None
    if args.nfv:
        from .nfv import (
            Deployment,
            check_deployment,
            default_nfv_tenants,
            price_deployment,
        )

        if args.tenants is not None:
            try:
                tenants = json.loads(Path(args.tenants).read_text())
            except (OSError, ValueError) as exc:
                raise ConfigError(
                    f"cannot read tenants file {args.tenants}: {exc}"
                ) from exc
        else:
            tenants = default_nfv_tenants()
        deployment = Deployment.from_dicts(
            tenants, device=get_device(args.device)
        )
        nfv_shell = _shell_from_args(args)
        findings += check_deployment(
            deployment, shell=nfv_shell, device=get_device(args.device)
        )
        nfv_price = price_deployment(
            deployment, shell=nfv_shell, device=get_device(args.device)
        )
        names = "+".join(spec.name for spec in deployment.tenants)
        targets.append(f"nfv:{names}")
    if args.self_lint:
        from .analysis.simlint import default_lint_root, lint_paths

        root = default_lint_root()
        findings += lint_paths([root])
        targets.append(f"self:{root}")
    effects_report: dict[str, dict] = {}
    fusibility_rows: list[tuple] = []
    fused: list[str] = []
    if apps:
        from .analysis import (
            analyze_app,
            check_app,
            effect_findings,
            fusion_engagement,
            line_rate_verdict,
        )

        device = get_device(args.device)
        shell = _shell_from_args(args)
        for name in apps:
            app = create_app(name)
            summary = analyze_app(app)
            findings += check_app(app, device=device, shell=shell)
            # check_app already cross-checked any surviving profile;
            # include_profile=False keeps the findings deduplicated.
            findings += effect_findings(
                app, shell, summary=summary, include_profile=False
            )
            targets.append(f"app:{name}")
            engaged = fusion_engagement(app, summary)
            if engaged is not None:
                fused.append(name)
            if args.effects:
                payload = summary.to_dict()
                payload["engaged_mode"] = engaged
                payload["line_rate"] = line_rate_verdict(summary, shell).to_dict()
                payload["digest"] = summary.digest()
                effects_report[name] = payload
            if args.fusibility:
                fusibility_rows.append(
                    (
                        name,
                        summary.burst_mode,
                        engaged or "-",
                        summary.key_bits,
                        summary.rewrite_bits,
                        summary.digest(),
                        "; ".join(summary.blockers) or "-",
                    )
                )
    if examples_dir is not None:
        from .analysis.xdpcheck import scan_source_file

        for path in sorted(Path(examples_dir).glob("*.py")):
            findings += scan_source_file(path)
            targets.append(f"example:{path}")
    findings = sort_findings(findings)
    counts = severity_counts(findings)
    headers = ("severity", "rule", "location", "message", "hint")
    rows = [finding.as_row() for finding in findings]
    if args.json:
        extra: dict[str, object] = {}
        if nfv_price is not None:
            extra["nfv"] = nfv_price.describe()
        if args.effects:
            extra["effects"] = effects_report
        if args.fusibility or args.effects:
            from .analysis.effects import corpus_digest

            extra["fusibility"] = {
                "fused": fused,
                "fused_count": len(fused),
                "corpus_digest": corpus_digest(),
            }
        print(
            table_json(
                "check", headers, rows, counts=counts, targets=targets, **extra
            )
        )
        return 1 if counts["error"] else 0
    if args.fusibility and fusibility_rows:
        from .analysis.effects import corpus_digest

        _print_rows(
            ("app", "proof", "engaged", "key_bits", "rewrite_bits", "digest",
             "blockers"),
            fusibility_rows,
        )
        print(
            f"{len(fused)}/{len(fusibility_rows)} applications fuse "
            f"(corpus digest {corpus_digest()})"
        )
        print()
    if args.effects and effects_report:
        for name, payload in effects_report.items():
            line_rate = payload["line_rate"]
            status = "sustains" if line_rate["sustained"] else "REJECTS"
            print(
                f"{name}: mode={payload['burst_mode']} "
                f"engaged={payload['engaged_mode'] or '-'} "
                f"key={payload['key_bits']}b rewrite={payload['rewrite_bits']}b "
                f"digest={payload['digest']}"
            )
            print(
                f"  line rate: {status} {line_rate['clock_mhz']} MHz × "
                f"{line_rate['datapath_bits']} b, worst frame "
                f"{line_rate['worst_frame']} B, "
                f"{line_rate['conflict_cycles']} conflict cycle(s)"
            )
            _print_rows(
                ("stage", "kind", "hdr r/w", "state r/w", "accesses", "time",
                 "commutes"),
                [
                    (
                        effect["stage"],
                        effect["kind"],
                        f"{effect['header_read_bits']}/{effect['header_write_bits']}",
                        f"{effect['state_read_bits']}/{effect['state_write_bits']}",
                        effect["table_accesses"],
                        "yes" if effect["reads_time"] else "-",
                        "yes" if effect["commutative"] else "no",
                    )
                    for effect in payload["effects"]
                ],
            )
            print()
    if nfv_price is not None:
        price = nfv_price.describe()
        print(
            f"nfv deployment: crossbar {price['crossbar']}, "
            f"{'fits' if price['fits'] else 'OVERFLOWS'} "
            f"(utilization {price['utilization']})"
        )
        for name, vec in price["per_tenant"].items():
            print(f"  tenant {name}: {vec}")
        print()
    if rows:
        _print_rows(headers, rows)
        print()
    print(
        f"checked {len(targets)} target(s): {counts['error']} error(s), "
        f"{counts['warning']} warning(s), {counts['info']} info"
    )
    return 1 if counts["error"] else 0


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
    from dataclasses import replace as _replace

    from .config import get_settings
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
    policy = None
    if args.shard_timeout is not None or args.max_retries is not None:
        policy = SupervisorPolicy.from_settings(get_settings())
        if args.shard_timeout is not None:
            policy = _replace(
                policy,
                shard_timeout_s=args.shard_timeout if args.shard_timeout > 0 else None,
            )
        if args.max_retries is not None:
            policy = _replace(policy, max_retries=args.max_retries)
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
    from .matrix import MatrixAxes, parse_int_axis, parse_optional_axis, run_matrix
    from .obs.scenario import ScenarioSpec

    axes = MatrixAxes(
        engines=tuple(args.engines.split(",")) if args.engines else ("reference",),
        shards=parse_int_axis(args.shards, "shards"),
        workers=parse_int_axis(args.workers, "workers"),
        devices=parse_optional_axis(args.devices, "devices"),
        fault_plans=parse_optional_axis(args.fault_plans, "fault-plans"),
    )
    spec = ScenarioSpec(kind=args.scenario, seed=args.seed)
    progress = None
    if not args.json:
        total = axes.size()

        def progress(label: str, _counter=iter(range(1, total + 1))) -> None:
            print(f"[{next(_counter)}/{total}] {label}")

    result = run_matrix(
        spec,
        axes,
        baseline=args.baseline,
        start_method=args.start_method,
        progress=progress,
    )
    document = result.document()
    if args.out is not None:
        write_text_atomic(args.out, document + "\n")
    exit_code = 0
    if not result.ok:
        exit_code = EXIT_PARTIAL
    if result.diverged and args.fail_on_diverged:
        exit_code = EXIT_DIVERGED
    if args.json:
        print(document)
        return exit_code
    print()
    _print_rows(
        ("cell", "verdict", "semantic", "timing-only", "complete"),
        result.rows(),
    )
    counts = result.counts()
    print(
        f"\n{counts['cells']} cell(s) vs baseline [{result.baseline}]: "
        f"{counts['diverged']} diverged, {counts['partial']} partial "
        f"-> {result.verdict}"
    )
    for cell in result.diverged_cells:
        for entry in cell.diff.semantic_entries:
            print(
                f"  {cell.config.label}: {entry.kind.value} {entry.name}: "
                f"{entry.a!r} != {entry.b!r}"
            )
    if args.out is not None:
        print(f"wrote {args.out}")
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


def _args_build(build: argparse.ArgumentParser) -> None:
    from .apps import APP_FACTORIES

    build.add_argument("app", choices=sorted(APP_FACTORIES))
    build.add_argument(
        "--shell", choices=sorted(_shell_kinds()), default="one-way-filter"
    )
    build.add_argument("--device", default="MPF200T")
    build.add_argument("--rate", type=float, default=10.0, help="line rate in Gbps")
    build.add_argument("--width", type=int, default=64, help="datapath bits")
    build.add_argument("--clock", type=float, default=None, help="PPE clock in MHz")
    build.add_argument("--soc", action="store_true", help="SoC-class control plane")
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


def _args_power(power: argparse.ArgumentParser) -> None:
    from .apps import APP_FACTORIES

    power.add_argument("--app", choices=sorted(APP_FACTORIES), default="nat")


def _args_scale(scale: argparse.ArgumentParser) -> None:
    scale.add_argument("gbps", type=float)


def _args_envelope(envelope: argparse.ArgumentParser) -> None:
    from .apps import APP_FACTORIES

    envelope.add_argument("gbps", type=float)
    envelope.add_argument("--app", choices=sorted(APP_FACTORIES), default="nat")
    envelope.add_argument("--width", type=int, default=64)
    envelope.add_argument("--clock", type=float, default=None, help="MHz")


def _args_chaos(chaos: argparse.ArgumentParser) -> None:
    from .faults.gauntlet import NAMED_PLANS

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
    check.add_argument("--device", default="MPF200T")
    check.add_argument(
        "--shell", choices=sorted(_shell_kinds()), default="one-way-filter"
    )
    check.add_argument("--rate", type=float, default=10.0, help="line rate in Gbps")
    check.add_argument("--width", type=int, default=64, help="datapath bits")
    check.add_argument("--soc", action="store_true", help="SoC-class control plane")


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
    from .faults.gauntlet import NAMED_PLANS
    from .obs.scenario import SCENARIO_KINDS

    run.add_argument("--scenario", choices=sorted(SCENARIO_KINDS), default="chaos")
    run.add_argument("--shards", type=int, default=4, help="independent instances")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: FLEXSFP_WORKERS, then 1)",
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
        "retried (0 disables; default: FLEXSFP_SHARD_TIMEOUT)",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        dest="max_retries",
        metavar="N",
        help="retries per failed shard beyond the first attempt "
        "(default: FLEXSFP_MAX_RETRIES, then 2)",
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
        "--scenario", choices=sorted(SCENARIO_KINDS), default="nat-linerate"
    )
    matrix.add_argument("--seed", type=int, default=1, help="root seed")
    matrix.add_argument(
        "--engines",
        default="reference",
        help="comma-separated engine axis: reference,compiled",
    )
    matrix.add_argument(
        "--shards", default="1", help="comma-separated shard-count axis: 1,4"
    )
    matrix.add_argument(
        "--workers", default="1", help="comma-separated worker-count axis"
    )
    matrix.add_argument(
        "--devices",
        default="none",
        help="comma-separated device axis ('none' keeps the base spec)",
    )
    matrix.add_argument(
        "--fault-plans",
        default="none",
        dest="fault_plans",
        help="comma-separated fault-plan axis ('none' keeps the base spec)",
    )
    matrix.add_argument(
        "--baseline",
        type=int,
        default=0,
        help="index of the baseline cell in axis-major order (default: 0)",
    )
    matrix.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        dest="start_method",
        help="multiprocessing start method for multi-worker cells",
    )
    matrix.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the merged flexsfp.matrix/1 document to FILE (atomic)",
    )
    matrix.add_argument(
        "--fail-on-diverged",
        action="store_true",
        dest="fail_on_diverged",
        help=f"exit {EXIT_DIVERGED} if any cell diverges semantically "
        "from the baseline (CI gate)",
    )


def _args_diff(diff: argparse.ArgumentParser) -> None:
    diff.add_argument("a", metavar="A.json", help="baseline artifact")
    diff.add_argument("b", metavar="B.json", help="candidate artifact")


# ----------------------------------------------------------------------
# The subcommand table, the one place a subcommand is registered:
# (name, help, configure(parser) or None, handler(args) -> exit code).
# ----------------------------------------------------------------------
COMMANDS = (
    ("apps", "list deployable applications", None, cmd_apps),
    ("devices", "list the FPGA device catalog", None, cmd_devices),
    ("build", "build an application, print the report", _args_build, cmd_build),
    ("table1", "reproduce the paper's Table 1", _args_table1, cmd_table1),
    ("table2", "reproduce the paper's Table 2", None, cmd_table2),
    ("table3", "reproduce the paper's Table 3", _args_units, cmd_table3),
    ("power", "the §5 power series for an app", _args_power, cmd_power),
    ("bom", "FlexSFP cost breakdown", _args_units, cmd_bom),
    ("scale", "plan an operating point for a line rate", _args_scale, cmd_scale),
    ("envelope", "check MSA power envelopes for a rate/app", _args_envelope, cmd_envelope),
    ("chaos", "replay a named fault plan through the chaos gauntlet", _args_chaos, cmd_chaos),
    ("check", "static verification: IR rules, XDP analysis, determinism lint", _args_check, cmd_check),
    ("metrics", "run an instrumented scenario, export its metrics registry", _args_metrics, cmd_metrics),
    ("trace", "per-packet stage spans through a scenario (JSON Lines)", _args_trace, cmd_trace),
    ("run", "sharded fleet-scale scenario run with merged metrics", _args_run, cmd_run),
    ("matrix", "sweep scenario axes, diff every cell against a baseline", _args_matrix, cmd_matrix),
    ("diff", "compare two saved flexsfp.run/1 artifacts", _args_diff, cmd_diff),
)  # fmt: skip


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The complete parser, or one that knows only ``only``'s arguments.

    Every subcommand is always registered by name and help string, so the
    top-level ``--help`` and argparse's unknown-command message do not
    depend on ``only``; ``main`` passes the subcommand named on the command
    line so that parsing it imports what that one subcommand needs.
    """
    parser = argparse.ArgumentParser(
        prog="flexsfp", description="FlexSFP feasibility toolkit"
    )
    # Shared by every subcommand: swap the text renderer for one
    # canonical schema-tagged JSON document on stdout.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, configure, handler in COMMANDS:
        subparser = sub.add_parser(name, help=help_text, parents=[common])
        if configure is not None and only in (None, name):
            configure(subparser)
        subparser.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser takes no option but --help, so the first word
    # that is not an option is the subcommand (or a typo argparse rejects).
    named = next((arg for arg in argv if not arg.startswith("-")), "")
    args = build_parser(only=named).parse_args(argv)
    try:
        code = args.func(args)
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
