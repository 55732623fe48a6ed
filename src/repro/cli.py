"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``workloads``
    List the SpecInt95-analogue suite.
``trace <workload>``
    Execute a workload and print dynamic-trace statistics; with
    ``--out``/``--smoke``, run a traced simulation instead and export
    it as Chrome trace-event JSON (viewable in Perfetto).
``metrics {dump,diff}``
    Dump one run's metrics (Prometheus text, snapshot JSON, or JSONL)
    or diff two snapshot files.
``disasm <workload>``
    Disassemble a workload's program.
``pairs <workload>``
    Run a spawning policy and print (optionally save) the pair table.
``simulate <workload>``
    Simulate the clustered processor and print the stats and speed-up.
``lint <workload>``
    Run the static workload linter (``repro.analysis.lint``).
``validate-pairs <workload>``
    Statically validate a spawning-pair table against the program.
``analyze-deps <workload>``
    Static memory-dependence analysis of a spawning-pair table: per-pair
    squash-risk reports (``repro.analysis.dependence``).
``sanitize``
    Replay-sanitize traced simulations against the speculation
    invariants (``repro.analysis.sanitizer``) across a workload ×
    policy × predictor grid, plus a fault-injected corruption leg.
``faults``
    Run a fault-injection campaign and print the degradation report.
``exp``
    Reproduce a figure of the paper (e.g. ``--fig 3``) through the
    parallel engine (``--jobs``, ``--backend``, ``--workers``,
    ``--cache-dir``, ``--telemetry``); ``--jobs 1`` runs every point in
    this process, and a re-run on the same ``--cache-dir`` resumes every
    completed point.
``worker``
    Distributed sweep worker: connect to a coordinator
    (``--connect host:port``) and execute stolen points until the
    sweep drains (see ``docs/distributed.md``).
``cache {stats,clear,warm}``
    Inspect, empty, or pre-populate the on-disk artifact cache.
``serve``
    Run the resilient simulation service (crash-safe journaled job
    queue, admission control, HTTP/JSON API); ``--smoke`` runs the CI
    gate.
``dashboard``
    Serve the live web UI over timelines, event streams, metrics and
    sweep manifests (``docs/dashboard.md``); ``--attach`` polls a
    running serve daemon's ``/metrics``, ``--snapshot DIR`` writes a
    static bundle, ``--smoke`` runs the CI gate.
``profile <workload>``
    Per-phase timings (trace build, pair selection, value-predictor
    priming, simulate, commit check) and cProfile hotspots of one point.

``trace --out``, ``metrics dump`` and ``dashboard`` simulate their point
through one function, :func:`repro.obs.traced_run`.  A flag that several
commands share (the workload and ``--scale``, ``--policy``/``--load``,
``--tus``/``--vp``, the sweep flags of ``exp`` and ``faults``) is
declared by one ``_add_*_args`` helper, with per-command defaults.

Exit codes
----------

All commands return 0 on success and 2 on a usage error: argparse's own
(an unknown workload, ``--tus 0``) or a bad value found while the
command runs (an unreadable or malformed ``--load`` table, a bad
``--rates`` list), reported as one ``<command>: <message>`` line.
``lint`` additionally returns 1 when any error-severity diagnostic is
emitted (or any warning under ``--strict``; with ``--docstrings`` it is
warn-only unless ``--strict``), ``validate-pairs`` returns 1 when any
pair has an error-severity finding, and ``faults`` returns 1 when a
campaign gate fails — all three are safe to gate CI on.  ``sanitize``
returns 1 when any speculation invariant is violated and
``analyze-deps --strict`` returns 1 when a pair needs synchronisation;
both are CI gates too.  ``profile`` returns 1 when a commit invariant
is violated.  ``serve`` returns 1 when a smoke check fails or a
drain ends with jobs still live, ``dashboard`` returns 1 when a smoke
check or the snapshot's trace validation fails, and ``worker`` returns
1 when the coordinator connection is lost before a clean shutdown.  Structured
simulation/execution failures (timeouts, invariant violations, runaway
workloads) exit 3 with a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.cache import ARTIFACT_KINDS
from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.dist.backend import backend_names
from repro.errors import ExecutionError, SimulationError
from repro.exec.columns import F_BRANCH, F_LOAD, F_STORE, F_TAKEN
from repro.experiments.framework import policy_builder, policy_names
from repro.isa.assembler import disassemble
from repro.obs import (
    MetricsSnapshot,
    RunManifest,
    traced_run,
    validate_chrome_trace,
)
from repro.predictors.value import VALUE_PREDICTORS
from repro.spawning import load_pair_set, save_pair_set
from repro.workloads import build_workload, load_trace, workload_names


class UsageError(Exception):
    """A bad option value found while a command runs (exit 2)."""


# ----------------------------------------------------------------------
# Shared flags, each declared once.
# ----------------------------------------------------------------------


def _add_scale_arg(parser: argparse.ArgumentParser,
                   default: Optional[float] = 1.0,
                   help: Optional[str] = None) -> None:
    parser.add_argument(
        "--scale", type=float, default=default,
        help=help or f"workload size multiplier (default {default})",
    )


def _add_workload_args(parser: argparse.ArgumentParser,
                       scale: Optional[float] = 1.0,
                       nargs: Optional[str] = None,
                       help: Optional[str] = None,
                       scale_help: Optional[str] = None,
                       max_steps: bool = True) -> None:
    """Add the workload positional, ``--scale`` and ``--max-steps``."""
    parser.add_argument("workload", nargs=nargs, choices=workload_names(),
                        help=help)
    _add_scale_arg(parser, scale, scale_help)
    if max_steps:
        parser.add_argument(
            "--max-steps", type=int, default=None,
            help="functional-execution step budget (a workload that does "
            "not halt within it fails fast)",
        )


def _add_pairs_args(parser: argparse.ArgumentParser,
                    load: bool = False) -> None:
    """Add ``--policy`` and, with ``load``, ``--load``."""
    parser.add_argument("--policy", choices=policy_names(),
                        default="profile",
                        help="spawning policy (default profile)")
    if load:
        parser.add_argument("--load", help="use a saved pair table instead "
                            "of selecting pairs")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return int(text)


def _add_machine_args(parser: argparse.ArgumentParser,
                      tus: Optional[int] = None,
                      vp: Optional[str] = None) -> None:
    """Add ``--tus`` and ``--vp`` with these defaults (None omits one)."""
    if tus is not None:
        parser.add_argument("--tus", type=_positive_int, default=tus,
                            help=f"thread units (default {tus})")
    if vp is not None:
        parser.add_argument("--vp", choices=VALUE_PREDICTORS, default=vp,
                            help=f"live-in value predictor (default {vp})")


def _add_sweep_args(parser: argparse.ArgumentParser, unit: str,
                    jobs: Optional[int] = None,
                    timeout: Optional[float] = None) -> None:
    """Add the flags of a parallel-engine sweep; ``unit`` names what it
    runs ("point" or "run")."""
    parser.add_argument(
        "--jobs", type=int, default=jobs,
        help=f"worker processes (default {jobs or 'CPU count'}; 1 = the "
        "bit-identical serial path)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk artifact cache shared by the workers; a re-run on "
        f"it resumes completed {unit}s",
    )
    parser.add_argument("--timeout", type=float, default=timeout,
                        help=f"per-{unit} wall-clock limit in seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help=f"retry budget per {unit}")
    parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help=f"write per-{unit} provenance manifests (config digest, "
        "seed, wall time) plus a rollup into DIR",
    )
    parser.add_argument("--verbose", action="store_true",
                        help=f"print per-{unit} progress to stderr")
    parser.add_argument(
        "--backend", choices=backend_names(), default=None,
        help="executor backend (default: serial for --jobs 1, process "
        "otherwise)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="backend parallelism (default: --jobs; fleet size for "
        "--backend remote)",
    )


# ----------------------------------------------------------------------
# Shared steps.
# ----------------------------------------------------------------------


def _trace_of(args):
    return load_trace(args.workload, args.scale, max_steps=args.max_steps)


def _trace_and_pairs(args):
    """Trace the workload and build its pairs from ``--load`` or
    ``--policy``; an unreadable ``--load`` table is a usage error."""
    loaded = None
    if getattr(args, "load", None):
        try:
            loaded = load_pair_set(args.load)
        except (OSError, ValueError) as exc:
            raise UsageError(
                f"cannot load pair table {args.load}: {exc}"
            ) from None
    trace = _trace_of(args)
    if loaded is None:
        return trace, policy_builder(args.policy)(trace)
    return trace, loaded


def _traced_run(args, timeline: bool):
    """Run ``args``' point through :func:`repro.obs.traced_run`."""
    trace, pairs = _trace_and_pairs(args)
    config = ProcessorConfig(
        num_thread_units=args.tus,
        value_predictor=args.vp,
        collect_timeline=timeline,
    )
    return traced_run(trace, pairs, config, workload=args.workload,
                      policy=args.policy, scale=args.scale)


def _write_telemetry(directory, command: str, run, files, extra) -> None:
    """Write ``files`` plus ``run``'s manifest into a ``--telemetry`` dir
    (discoverable by the dashboard's manifest browser)."""
    tele = Path(directory)
    tele.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (tele / name).write_text(text)
    RunManifest(
        name=f"{command}/{run.meta['workload']}",
        config=dict(run.meta),
        seconds=run.seconds,
        extra=extra,
    ).write(tele)
    written = " + ".join(name.split(".")[0] for name in files)
    print(f"wrote telemetry ({written} + manifest) to {tele}")


def _write_report(path: str, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"wrote JSON report to {path}")


def _print_smoke(report, title: str, width: int, tail: str = "") -> int:
    """Print a ``{"ok", "checks"}`` smoke report; return its exit code."""
    for check in report["checks"]:
        status = "ok" if check["ok"] else "FAIL"
        detail = (
            f"  ({check['detail']})"
            if check["detail"] and not check["ok"] else ""
        )
        print(f"  {check['name']:{width}s} {status}{detail}")
    passed = sum(1 for check in report["checks"] if check["ok"])
    print(f"{title}: {passed}/{len(report['checks'])} checks{tail}")
    return 0 if report["ok"] else 1


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------


def cmd_workloads(args) -> int:
    from repro.workloads import SPECINT95

    for name, spec in SPECINT95.items():
        print(f"{name:10s} {spec.description}")
    return 0


def cmd_trace(args) -> int:
    export = args.out or args.metrics or args.smoke or args.telemetry
    if args.workload is None and not args.smoke:
        raise UsageError("a workload is required (or --smoke)")
    args.workload = args.workload or "compress"
    if args.scale is None:
        args.scale = 0.25 if args.smoke else 1.0
    if not export:
        trace = _trace_of(args)
        branches = taken = loads = stores = 0
        for bits in trace.columns.flags:
            if bits & F_BRANCH:
                branches += 1
                if bits & F_TAKEN:
                    taken += 1
            elif bits & F_LOAD:
                loads += 1
            elif bits & F_STORE:
                stores += 1
        calls = sum(
            len(trace.positions_of(pc)) for pc in trace.program.call_sites()
        )
        print(f"workload          {args.workload} (scale {args.scale})")
        print(f"dynamic length    {len(trace)}")
        print(f"static length     {len(trace.program)}")
        print(f"branches          {branches} "
              f"({taken / max(branches, 1):.0%} taken)")
        print(f"loads / stores    {loads} / {stores}")
        print(f"calls             {calls}")
        print(f"loop heads        {sorted(trace.program.loop_heads())}")
        return 0
    # Export mode: run a fully traced simulation and emit a Chrome
    # trace-event JSON (plus, optionally, a metrics snapshot).
    out_path = args.out or ("trace.json" if args.smoke else None)
    metrics_path = args.metrics or ("metrics.json" if args.smoke else None)
    run = _traced_run(args, timeline=True)
    chrome = run.chrome_trace()
    problems = validate_chrome_trace(chrome)
    if problems:
        for problem in problems:
            print(f"trace: schema error: {problem}", file=sys.stderr)
        return 1
    print(
        f"{args.workload}: {run.stats.cycles} cycles, "
        f"{run.stats.threads_committed} threads, {len(run.events)} events "
        f"({len(chrome['traceEvents'])} trace entries, schema OK)"
    )
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(chrome, handle, sort_keys=True)
        print(f"wrote Chrome trace to {out_path} (open in ui.perfetto.dev)")
    if metrics_path:
        with open(metrics_path, "w") as handle:
            json.dump(run.metrics().snapshot().to_dict(), handle,
                      indent=1, sort_keys=True)
        print(f"wrote metrics snapshot to {metrics_path}")
    if args.telemetry:
        _write_telemetry(
            args.telemetry, "trace", run,
            {
                "trace.json": json.dumps(chrome, sort_keys=True) + "\n",
                "events.jsonl": run.tracer.to_jsonl() + "\n",
            },
            extra={
                "cycles": run.stats.cycles,
                "threads_committed": run.stats.threads_committed,
                "events": len(run.events),
            },
        )
    return 0


def cmd_metrics(args) -> int:
    if args.metrics_cmd == "diff":
        with open(args.before) as handle:
            before = MetricsSnapshot.from_dict(json.load(handle))
        with open(args.after) as handle:
            after = MetricsSnapshot.from_dict(json.load(handle))
        changes = before.diff(after)
        for change in changes:
            delta = change.get("delta")
            suffix = f"  ({delta:+g})" if delta is not None else ""
            print(
                f"{change['key']}: {change['before']} -> "
                f"{change['after']}{suffix}"
            )
        print(f"{len(changes)} sample(s) changed")
        return 1 if changes else 0
    # dump: run one traced simulation and emit its metrics.
    run = _traced_run(args, timeline=False)
    registry = run.metrics()
    if args.format == "prom":
        text = registry.to_prometheus()
    elif args.format == "jsonl":
        text = registry.to_jsonl() + "\n"
    else:
        text = json.dumps(
            registry.snapshot().to_dict(), indent=1, sort_keys=True
        ) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote metrics ({args.format}) to {args.out}")
    else:
        print(text, end="")
    if args.telemetry:
        _write_telemetry(
            args.telemetry, "metrics", run, {f"metrics.{args.format}": text},
            extra={"format": args.format, "events": len(run.events)},
        )
    return 0


def cmd_disasm(args) -> int:
    print(disassemble(build_workload(args.workload, args.scale)), end="")
    return 0


def cmd_pairs(args) -> int:
    _, pairs = _trace_and_pairs(args)
    print(
        f"{pairs.candidates_evaluated} candidates evaluated, "
        f"{len(pairs)} spawning points"
    )
    for pair in sorted(pairs.primary_pairs(), key=lambda p: p.sp_pc):
        print(
            f"  SP {pair.sp_pc:5d} -> CQIP {pair.cqip_pc:5d}  "
            f"P={pair.reach_probability:5.3f}  "
            f"dist={pair.expected_distance:7.1f}  {pair.kind.value}"
        )
    if args.save:
        save_pair_set(pairs, args.save)
        print(f"saved pair table to {args.save}")
    return 0


def cmd_simulate(args) -> int:
    trace, pairs = _trace_and_pairs(args)
    config = ProcessorConfig(
        num_thread_units=args.tus,
        value_predictor=args.vp,
        init_overhead=args.init_overhead,
        removal_cycles=args.removal,
        min_thread_size=args.min_thread_size,
        cycle_budget=args.cycle_budget,
    )
    injector = None
    if args.fault_rate:
        from repro.faults import FaultInjector, FaultPlan

        injector = FaultInjector(
            FaultPlan.uniform(args.fault_rate, seed=args.fault_seed)
        )
    stats = simulate(trace, pairs, config, injector)
    baseline = single_thread_cycles(trace, config)
    for key, value in stats.summary().items():
        print(f"{key:20s} {value}")
    print(f"{'baseline_cycles':20s} {baseline}")
    print(f"{'speedup':20s} {baseline / stats.cycles:.3f}")
    return 0


def cmd_timeline(args) -> int:
    from repro.cmt.gantt import render_gantt

    trace, pairs = _trace_and_pairs(args)
    config = ProcessorConfig(
        num_thread_units=args.tus,
        value_predictor=args.vp,
        collect_timeline=True,
    )
    stats = simulate(trace, pairs, config)
    print(
        f"{args.workload}: {stats.cycles} cycles, "
        f"{stats.threads_committed} threads on {args.tus} units"
    )
    print(render_gantt(stats, args.tus, width=args.width))
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import LINT_RULES, lint_program

    if args.list_rules:
        for rule, (severity, doc) in LINT_RULES.items():
            print(f"{rule:24s} {severity.label():7s} {doc}")
        return 0
    if args.docstrings:
        from repro.analysis.docstrings import audit_docstrings

        issues = audit_docstrings()
        for issue in issues:
            print(f"  {issue.format()}")
        warnings = sum(1 for i in issues if i.severity == "warning")
        infos = len(issues) - warnings
        print(f"docstrings: {warnings} warning(s), {infos} info(s)")
        return 1 if args.strict and warnings else 0
    if args.workload is None:
        raise UsageError("a workload is required (or --list-rules, "
                         "--docstrings)")
    program = build_workload(args.workload, args.scale)
    try:
        report = lint_program(program, ignore=args.ignore or ())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"{program.name}: {report.summary()}")
    for diag in report:
        print(f"  {diag.format()}")
    if report.has_errors():
        return 1
    if args.strict and report.warnings:
        return 1
    return 0


def cmd_validate_pairs(args) -> int:
    from repro.analysis import validate_pairs

    trace, pairs = _trace_and_pairs(args)
    report = validate_pairs(trace.program, pairs)
    print(f"{args.workload}: {report.summary()}")
    for finding in report:
        print(f"  {finding.format()}")
    return 1 if report.errors() else 0


def cmd_analyze_deps(args) -> int:
    from repro.analysis.dependence import analyze_pairs

    trace, pairs = _trace_and_pairs(args)
    reports = analyze_pairs(trace.program, pairs)
    print(f"{args.workload}: {len(reports)} pair(s) analysed")
    for report in reports.values():
        print(f"  {report.format()}")
    if args.json:
        _write_report(args.json, {
            "workload": args.workload,
            "pairs": [r.to_dict() for r in reports.values()],
        })
    sync_pairs = [
        r for r in reports.values() if r.recommended_predictor == "sync"
    ]
    if sync_pairs:
        print(f"{len(sync_pairs)} pair(s) need synchronisation "
              "(memory-carried live-ins)")
    return 1 if args.strict and sync_pairs else 0


def cmd_sanitize(args) -> int:
    from repro.analysis.dependence import DependenceAnalysis
    from repro.analysis.sanitizer import sanitize_run
    from repro.faults import FaultInjector, FaultPlan, LiveinCorruptionFault

    workloads = list(args.workloads or workload_names())
    predictors = ("perfect", "stride", "fcm")
    scale = args.scale
    if args.smoke:
        workloads = list(args.workloads or ("compress", "ijpeg"))
        predictors = ("perfect", "stride")
        scale = min(scale, 0.1)

    corrupt_plan = FaultPlan(
        seed=args.seed,
        livein_corruption=LiveinCorruptionFault(rate=args.fault_rate),
    )
    runs = []
    violations = 0
    for name in workloads:
        trace = load_trace(name, scale)
        analysis = DependenceAnalysis(trace.program)
        for policy in ("profile", "heuristics"):
            pairs = policy_builder(policy)(trace)
            legs = [(vp, None) for vp in predictors]
            legs.append(("stride", FaultInjector(corrupt_plan)))
            for vp, injector in legs:
                config = ProcessorConfig(
                    num_thread_units=args.tus, value_predictor=vp
                )
                stats, report = sanitize_run(
                    trace, pairs, config, injector, analysis=analysis
                )
                violations += len(report.violations)
                label = f"{name}/{policy}/{vp}"
                if injector is not None:
                    label += "+corrupt"
                status = "ok" if report.ok else "FAIL"
                print(f"  {label:36s} {sum(report.checks.values()):6d} checks"
                      f"  {len(report.violations):2d} violation(s)"
                      f"  {report.corruptions_flagged:4d} corruption(s)"
                      f"  {status}")
                for violation in report.violations[:5]:
                    print(f"    {violation.format()}")
                runs.append({
                    "workload": name,
                    "policy": policy,
                    "value_predictor": vp,
                    "faulted": injector is not None,
                    "liveins_corrupted": stats.liveins_corrupted,
                    **report.to_dict(),
                })
    print(f"sanitize: {len(runs)} run(s), {violations} violation(s)")
    if args.report:
        _write_report(args.report, {
            "ok": violations == 0,
            "scale": scale,
            "seed": args.seed,
            "fault_rate": args.fault_rate,
            "runs": runs,
        })
    return 1 if violations else 0


def cmd_faults(args) -> int:
    from repro.faults.campaign import CampaignSpec, run_campaign

    if args.smoke:
        spec = CampaignSpec.smoke(seed=args.seed)
    else:
        try:
            rates = tuple(
                float(token)
                for token in args.rates.split(",")
                if token.strip() != ""
            )
        except ValueError:
            raise UsageError(f"bad --rates value {args.rates!r}") from None
        if 0.0 not in rates:
            rates = (0.0,) + rates  # the zero-rate gate is always run
        spec = CampaignSpec(
            workloads=tuple(args.workloads or workload_names()),
            rates=rates,
            seed=args.seed,
            scale=args.scale,
            policy=args.policy,
            thread_units=args.tus,
            timeout=args.timeout,
            retries=args.retries,
        )
    result = run_campaign(
        spec,
        crash_keys=tuple(args.inject_crash or ()),
        progress=(lambda line: print(line, file=sys.stderr))
        if args.verbose
        else None,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        telemetry_dir=args.telemetry,
        backend=args.backend,
        workers=args.workers,
    )
    print(result.render())
    if args.report:
        _write_report(args.report, result.to_dict())
    return 0 if result.ok else 1


def _normalize_figure(token: str) -> str:
    """Map ``8``/``5a``/``figure8`` to the figure-driver name."""
    token = token.strip().lower()
    return token if token.startswith("figure") or not token[:1].isdigit() \
        else f"figure{token}"


def _default_cache_dir() -> str:
    import os

    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def cmd_exp(args) -> int:
    from repro.experiments.figures import ALL_FIGURES
    from repro.experiments.engine import ParallelEngine, run_figure

    figure = _normalize_figure(args.fig)
    if figure not in ALL_FIGURES:
        print(f"unknown figure {args.fig!r}; pick from "
              f"{', '.join(ALL_FIGURES)}", file=sys.stderr)
        return 2
    engine = ParallelEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        telemetry_dir=args.telemetry,
        backend=args.backend,
        workers=args.workers,
    )
    progress = None
    if args.verbose:
        def progress(key, outcome, resumed):
            state = ("resumed" if resumed
                     else "ok" if outcome.ok else "FAILED")
            print(f"  {key}: {state}", file=sys.stderr)
    result = run_figure(figure, args.scale, engine, progress=progress)
    print(result.render())
    if engine.cache is not None:
        events = engine.cache_events
        print(
            f"cache: {events['memory_hits']} memory hits, "
            f"{events['disk_hits']} disk hits, {events['misses']} misses "
            f"({engine.cache_hit_rate():.0%} hit rate)",
            file=sys.stderr,
        )
    if engine.fleet:
        fleet = engine.fleet
        print(
            f"fleet [{engine.backend_name}]: "
            f"{fleet.get('completed', 0)}/{fleet.get('tasks', 0)} tasks, "
            f"lost={fleet.get('lost', 0)}, "
            f"requeues={fleet.get('requeues', 0)}",
            file=sys.stderr,
        )
    return 0


def cmd_cache(args) -> int:
    from repro.cache import ArtifactCache, SCHEMA_VERSION, generator_version

    cache = ArtifactCache(args.cache_dir)
    if args.action == "stats":
        print(f"cache directory   {cache.root}")
        print(f"schema version    {SCHEMA_VERSION}")
        print(f"generator version {generator_version()}")
        total_entries = total_bytes = 0
        for kind, info in sorted(cache.disk_summary().items()):
            print(f"  {kind:10s} {info.entries:5d} entries "
                  f"{info.bytes:12d} bytes")
            total_entries += info.entries
            total_bytes += info.bytes
        print(f"  {'total':10s} {total_entries:5d} entries "
              f"{total_bytes:12d} bytes")
        return 0
    if args.action == "clear":
        removed = cache.clear(args.kind)
        print(f"removed {removed} artifact(s) from {cache.root}")
        return 0
    # warm: derive trace, pair-set and priming-sequence artifacts (the
    # latter at the default priming parameters) for the whole suite, so
    # a following sweep starts from a hot cache.
    from repro.experiments import framework

    with framework.use_cache(cache):
        for name in framework.suite(args.scale):
            framework.trace_for(name, args.scale)
            for policy in ("profile", "heuristics"):
                framework.pair_set_for(name, policy, args.scale)
                framework.priming_sequence_for(name, policy, args.scale)
            if args.verbose:
                print(f"  warmed {name}", file=sys.stderr)
    stats = cache.stats
    print(f"warmed {cache.root}: {stats.puts} artifact(s) written, "
          f"{stats.hits} already present")
    return 0


def cmd_serve(args) -> int:
    import tempfile

    if args.smoke:
        from repro.serve.client import run_serve_smoke

        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            report = run_serve_smoke(Path(tmp) / "state")
        return _print_smoke(report, "serve smoke", 26,
                            f", {report['jobs']} job(s)")

    # Daemon mode: run until a drain (SIGTERM/SIGINT or POST
    # /admin/drain) completes.
    from repro.serve.server import ServeConfig, ServeDaemon

    daemon = ServeDaemon(ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queued=args.max_queued,
        shed_ratio=args.shed_ratio,
        retries=args.retries,
        timeout=args.timeout,
        backoff=args.backoff,
        jitter=args.jitter,
        state_dir=args.state_dir,
        cache_dir=args.cache_dir,
        telemetry_dir=args.telemetry,
        drain_timeout=args.drain_timeout,
        fsync=not args.no_fsync,
    ))
    daemon.install_signal_handlers()
    daemon.start()
    host, port = daemon.address
    recovery = daemon.recovery
    print(f"repro serve listening on http://{host}:{port} "
          f"(state {daemon.state_dir})", flush=True)
    if recovery.jobs:
        print(f"recovered {recovery.jobs} job(s) from the journal: "
              f"{recovery.requeued} requeued, {recovery.finished} "
              f"already terminal, {recovery.duplicate_finishes} "
              "duplicate finish(es)", flush=True)
    clean = daemon.wait_drained(None)
    audit = daemon.audit()
    print(f"drained: {audit['terminal']}/{audit['accepted']} job(s) "
          f"terminal, {audit['lost']} live", flush=True)
    return 0 if clean and audit["lost"] == 0 else 1


def cmd_dashboard(args) -> int:
    import time

    from repro.dashboard import (
        DashboardApp,
        DashboardData,
        run_smoke,
        write_snapshot,
    )

    if args.smoke:
        return _print_smoke(run_smoke(), "dashboard smoke", 20)

    try:
        data = DashboardData.collect(
            workload=args.workload or "compress",
            scale=args.scale,
            policy=args.policy,
            value_predictor=args.vp,
            thread_units=args.tus,
            max_steps=args.max_steps,
            trace_path=args.trace,
            events_path=args.events,
            telemetry=args.telemetry,
            attach=args.attach,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    if args.snapshot:
        written = write_snapshot(data, args.snapshot)
        problems = validate_chrome_trace(data.trace_payload())
        for problem in problems:
            print(f"dashboard: trace schema error: {problem}",
                  file=sys.stderr)
        names = ", ".join(path.name for path in written)
        print(f"wrote snapshot bundle to {args.snapshot} ({names})")
        return 1 if problems else 0

    app = DashboardApp(data, host=args.host, port=args.port)
    app.start()
    telemetry = ", ".join(str(d) for d in data.telemetry) or "none"
    print(f"repro dashboard on {app.url} "
          f"(telemetry: {telemetry})", flush=True)
    if data.attach_url:
        print(f"metrics attached to {data.attach_url}/metrics",
              flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        app.stop()
    return 0


def cmd_worker(args) -> int:
    from repro.dist.worker import run_worker

    try:
        return run_worker(
            args.connect,
            worker_id=args.id,
            cache_dir=args.cache_dir,
            heartbeat=args.heartbeat,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_profile(args) -> int:
    from repro.experiments.profiler import profile_run

    report = profile_run(
        workload=args.workload,
        scale=args.scale,
        policy=args.policy,
        value_predictor=args.vp,
        sim_core=args.core,
        top=args.top,
        with_profile=not args.no_cprofile,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thread-spawning schemes for speculative multithreading "
        "(HPCA 2002) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the benchmark suite")

    p = sub.add_parser(
        "trace",
        help="dynamic-trace statistics, or a traced simulation exported "
        "as Chrome trace-event JSON (--out/--smoke)",
    )
    _add_workload_args(p, scale=None, nargs="?",
                       help="workload (optional with --smoke)",
                       scale_help="workload size multiplier (default 1.0; "
                       "0.25 with --smoke)")
    _add_pairs_args(p)
    _add_machine_args(p, tus=8, vp="stride")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the traced run as Chrome trace-event JSON "
                   "(viewable in ui.perfetto.dev)")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="also write the run's metrics snapshot JSON")
    p.add_argument("--smoke", action="store_true",
                   help="CI mode: small traced run (compress by default), "
                   "schema-validated, writing trace.json + metrics.json")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="also write trace.json + events.jsonl + a run "
                   "manifest into DIR (discoverable by the dashboard's "
                   "manifest browser)")

    p = sub.add_parser(
        "metrics",
        help="metrics registry: dump one run or diff two snapshots",
    )
    msub = p.add_subparsers(dest="metrics_cmd", required=True)
    d = msub.add_parser("dump", help="simulate one point and emit metrics")
    _add_workload_args(d)
    _add_pairs_args(d)
    _add_machine_args(d, tus=16, vp="stride")
    d.add_argument("--format", choices=("prom", "json", "jsonl"),
                   default="prom",
                   help="Prometheus text, snapshot JSON, or JSON Lines")
    d.add_argument("--out", default=None, metavar="FILE",
                   help="write instead of printing")
    d.add_argument("--telemetry", default=None, metavar="DIR",
                   help="also write the metrics output + a run manifest "
                   "into DIR (discoverable by the dashboard's manifest "
                   "browser)")
    f = msub.add_parser("diff", help="diff two snapshot JSON files")
    f.add_argument("before", help="snapshot JSON (e.g. from 'metrics "
                   "dump --format json')")
    f.add_argument("after", help="snapshot JSON to compare against")

    p = sub.add_parser("disasm", help="disassemble a workload")
    _add_workload_args(p)

    p = sub.add_parser("pairs", help="select and print spawning pairs")
    _add_workload_args(p)
    _add_pairs_args(p)
    p.add_argument("--save", help="write the pair table to a JSON file")

    p = sub.add_parser("simulate", help="run the CSMT simulator")
    _add_workload_args(p)
    _add_pairs_args(p, load=True)
    _add_machine_args(p, tus=16, vp="perfect")
    p.add_argument("--init-overhead", type=int, default=0)
    p.add_argument("--removal", type=int, default=None,
                   help="alone-cycles removal threshold")
    p.add_argument("--min-thread-size", type=int, default=None)
    p.add_argument("--cycle-budget", type=int, default=None,
                   help="abort the simulation past this many cycles")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="uniform fault-injection rate (0 disables)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the fault plan (with --fault-rate)")

    p = sub.add_parser("timeline", help="ASCII Gantt of thread lifetimes")
    _add_workload_args(p)
    _add_pairs_args(p)
    _add_machine_args(p, tus=8, vp="perfect")
    p.add_argument("--width", type=int, default=100)

    p = sub.add_parser("lint", help="static workload linter")
    _add_workload_args(p, nargs="?", max_steps=False)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on warnings as well as errors")
    p.add_argument("--ignore", action="append", metavar="RULE",
                   help="drop a lint rule (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule registry and exit")
    p.add_argument("--docstrings", action="store_true",
                   help="audit docstrings of the public entry points "
                   "instead of linting a workload (warn-only unless "
                   "--strict)")

    p = sub.add_parser("validate-pairs",
                       help="statically validate a spawning-pair table")
    _add_workload_args(p)
    _add_pairs_args(p, load=True)

    p = sub.add_parser(
        "analyze-deps",
        help="static memory-dependence analysis of spawning pairs",
    )
    _add_workload_args(p)
    _add_pairs_args(p, load=True)
    p.add_argument("--json", metavar="FILE",
                   help="write the per-pair reports as JSON")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any pair needs synchronisation "
                   "(memory-carried live-ins)")

    p = sub.add_parser(
        "sanitize",
        help="replay-sanitize simulations against speculation invariants",
    )
    p.add_argument("--workloads", nargs="*", choices=workload_names(),
                   help="workloads to check (default: whole suite, or "
                   "compress+ijpeg with --smoke)")
    _add_scale_arg(p, 0.2)
    _add_machine_args(p, tus=8)
    p.add_argument("--seed", type=int, default=2002,
                   help="seed of the corruption fault plan")
    p.add_argument("--fault-rate", type=float, default=0.25,
                   help="live-in corruption rate of the faulted leg")
    p.add_argument("--report", help="write the JSON violations report here")
    p.add_argument("--smoke", action="store_true",
                   help="small fixed grid for CI")

    p = sub.add_parser(
        "faults",
        help="fault-injection campaign with degradation report",
    )
    p.add_argument("--workloads", nargs="*", choices=workload_names(),
                   help="workloads to sweep (default: whole suite)")
    p.add_argument("--rates", default="0,0.01,0.05,0.1",
                   help="comma-separated fault rates (0 is always added)")
    p.add_argument("--seed", type=int, default=2002,
                   help="campaign seed (fully determines every fault)")
    _add_scale_arg(p)
    _add_pairs_args(p)
    _add_machine_args(p, tus=16)
    p.add_argument("--report", help="write the JSON degradation report here")
    p.add_argument("--smoke", action="store_true",
                   help="small fixed campaign for CI (overrides sweep args)")
    p.add_argument("--inject-crash", action="append", metavar="KEY",
                   help="crash KEY's first attempt (resilience testing; "
                   "KEY is workload@rate)")
    _add_sweep_args(p, "run", jobs=1, timeout=120.0)

    p = sub.add_parser(
        "exp",
        help="reproduce a figure through the parallel engine",
    )
    p.add_argument("--fig", required=True,
                   help="figure to reproduce (8 or figure8)")
    _add_scale_arg(p)
    _add_sweep_args(p, "point")

    p = sub.add_parser(
        "worker",
        help="distributed sweep worker: connect to a coordinator and "
        "execute stolen points",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator endpoint to dial")
    p.add_argument("--id", default=None,
                   help="stable worker id for telemetry (default w-<pid>)")
    p.add_argument("--cache-dir", default=None,
                   help="local artifact-cache directory (default: a "
                   "throwaway temp dir; the shared cache fills it)")
    p.add_argument("--heartbeat", type=float, default=2.0,
                   help="seconds between liveness beacons (default 2)")

    p = sub.add_parser("cache", help="artifact-cache maintenance")
    p.add_argument("action", choices=("stats", "clear", "warm"))
    p.add_argument("--cache-dir", default=_default_cache_dir(),
                   help="cache directory (default: $REPRO_CACHE_DIR or "
                   ".repro-cache)")
    p.add_argument("--kind", default=None, choices=ARTIFACT_KINDS,
                   help="restrict 'clear' to one artifact kind")
    _add_scale_arg(p, help="workload scale to warm (with 'warm')")
    p.add_argument("--verbose", action="store_true",
                   help="print per-workload warm progress to stderr")

    p = sub.add_parser(
        "serve",
        help="resilient simulation service (crash-safe job queue, "
        "admission control, HTTP/JSON API)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (0 = ephemeral; the bound port is "
                   "advertised in <state-dir>/endpoint.json)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker pool size (default 2)")
    p.add_argument("--state-dir", default=".repro-serve",
                   help="journal + endpoint directory "
                   "(default .repro-serve)")
    p.add_argument("--cache-dir", default=None,
                   help="artifact cache shared with sweeps; identical "
                   "submissions are served from it without re-running")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="write per-job provenance manifests into DIR")
    p.add_argument("--max-queued", type=int, default=64,
                   help="admission bound on queued jobs (default 64)")
    p.add_argument("--shed-ratio", type=float, default=0.8,
                   help="queue-pressure fraction shedding low priority")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-attempt wall-clock limit in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="transient-retry budget per job (default 2)")
    p.add_argument("--backoff", type=float, default=0.05,
                   help="retry backoff base in seconds")
    p.add_argument("--jitter", type=float, default=0.5,
                   help="deterministic jitter fraction of the backoff")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds a graceful drain waits for live jobs")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip per-record journal fsync (faster, "
                   "weakens crash durability)")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: exercise one daemon end to end "
                   "(execute/dedup/retry/quarantine/cancel/drain + "
                   "journal recovery + cache-served resubmit) and exit")

    p = sub.add_parser(
        "dashboard",
        help="live web UI over timelines, event streams, metrics and "
        "sweep manifests (docs/dashboard.md)",
    )
    _add_workload_args(p, scale=0.25, nargs="?",
                       help="workload backing the startup simulation "
                       "(default compress; ignored with --trace)")
    _add_pairs_args(p)
    _add_machine_args(p, tus=8, vp="stride")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="serve this Chrome-trace JSON (e.g. from "
                   "'repro trace --out') instead of simulating")
    p.add_argument("--events", default=None, metavar="FILE",
                   help="JSONL event stream backing the inspector "
                   "(with --trace)")
    p.add_argument("--telemetry", action="append", default=None,
                   metavar="DIR",
                   help="telemetry directory for the manifest browser "
                   "(repeatable; default: auto-discover under the "
                   "working directory)")
    p.add_argument("--attach", default=None, metavar="TARGET",
                   help="poll a running serve daemon's /metrics: a "
                   "serve state dir, an endpoint.json, host:port, or "
                   "a URL")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8650,
                   help="bind port (default 8650; 0 = ephemeral)")
    p.add_argument("--snapshot", default=None, metavar="DIR",
                   help="write a static bundle (index.html + per-view "
                   "JSON) instead of serving")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: ephemeral server, every endpoint hit, "
                   "trace schema-validated, --attach exercised against "
                   "a real serve daemon, snapshot re-validated")

    p = sub.add_parser(
        "profile",
        help="per-phase timings and cProfile hotspots of one point",
    )
    _add_workload_args(p, scale=0.3, max_steps=False)
    _add_pairs_args(p)
    _add_machine_args(p, vp="stride")
    p.add_argument("--core", choices=("event", "legacy"),
                   default="event", help="simulator core to profile")
    p.add_argument("--top", type=int, default=15,
                   help="hotspot functions to report (default 15)")
    p.add_argument("--no-cprofile", action="store_true",
                   help="phase timings only (no function-level profile)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    return parser


_COMMANDS = {
    "workloads": cmd_workloads,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "disasm": cmd_disasm,
    "pairs": cmd_pairs,
    "simulate": cmd_simulate,
    "timeline": cmd_timeline,
    "lint": cmd_lint,
    "validate-pairs": cmd_validate_pairs,
    "analyze-deps": cmd_analyze_deps,
    "sanitize": cmd_sanitize,
    "faults": cmd_faults,
    "exp": cmd_exp,
    "worker": cmd_worker,
    "cache": cmd_cache,
    "serve": cmd_serve,
    "dashboard": cmd_dashboard,
    "profile": cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ExecutionError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
