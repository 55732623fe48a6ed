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
``figure <name>``
    Regenerate one figure of the paper (e.g. ``figure3``).
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
    Reproduce a figure through the parallel engine (``--jobs``,
    ``--backend``, ``--workers``, ``--cache-dir``, ``--checkpoint``,
    ``--telemetry``).
``worker``
    Distributed sweep worker: connect to a coordinator
    (``--connect host:port``) and execute stolen points until the
    sweep drains (see ``docs/distributed.md``).
``cache {stats,clear,warm}``
    Inspect, empty, or pre-populate the on-disk artifact cache.
``bench``
    Benchmark the parallel engine and cache (``BENCH_parallel.json``)
    and the simulator core (``BENCH_simcore.json``); ``--dist`` adds
    the distributed-backend benchmark (``BENCH_dist.json``).
``serve``
    Run the resilient simulation service (crash-safe journaled job
    queue, admission control, HTTP/JSON API); ``--smoke`` runs the CI
    gate, ``--bench`` the load/chaos benchmark (``BENCH_serve.json``).
``dashboard``
    Serve the live web UI over timelines, event streams, metrics and
    sweep manifests (``docs/dashboard.md``); ``--attach`` polls a
    running serve daemon's ``/metrics``, ``--snapshot DIR`` writes a
    static bundle, ``--smoke`` runs the CI gate.
``profile <workload>``
    Per-phase timings (trace build, column build, pair selection,
    simulate, commit check) and cProfile hotspots of one point.

Exit codes
----------

All commands return 0 on success and 2 on a usage error (argparse).
``lint`` additionally returns 1 when any error-severity diagnostic is
emitted (or any warning under ``--strict``; with ``--docstrings`` it is
warn-only unless ``--strict``), ``validate-pairs`` returns 1 when any
pair has an error-severity finding, and ``faults`` returns 1 when a
campaign gate fails — all three are safe to gate CI on.  ``sanitize``
returns 1 when any speculation invariant is violated and
``analyze-deps --strict`` returns 1 when a pair needs synchronisation;
both are CI gates too.  ``bench``
returns 1 when the phases disagree on figure results or a sim-core
gate fails, and ``profile`` returns 1 when a commit invariant is
violated.  ``serve`` returns 1 when a smoke/bench gate fails or a
drain ends with jobs still live, ``dashboard`` returns 1 when a smoke
check or the snapshot's trace validation fails, and ``worker`` returns
1 when the coordinator connection is lost before a clean shutdown.  Structured
simulation/execution failures (timeouts, invariant violations, runaway
workloads) exit 3 with a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.errors import ExecutionError, SimulationError
from repro.isa.assembler import disassemble
from repro.isa.instructions import Opcode
from repro.spawning import (
    HeuristicConfig,
    ProfilePolicyConfig,
    heuristic_pairs,
    load_pair_set,
    save_pair_set,
    select_profile_pairs,
)
from repro.workloads import build_workload, load_trace, workload_names


def _add_workload_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=workload_names())
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0)")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="functional-execution step budget (a workload "
                        "that does not halt within it fails fast)")


def _trace_of(args):
    return load_trace(args.workload, args.scale,
                      max_steps=getattr(args, "max_steps", None))


def _profile_config(args) -> ProfilePolicyConfig:
    return ProfilePolicyConfig(
        coverage=args.coverage,
        max_distance=args.max_distance,
        min_distance=args.min_distance,
        ordering=args.ordering,
    )


def _add_policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=("profile", "heuristics"),
                        default="profile")
    parser.add_argument("--coverage", type=float, default=0.99)
    parser.add_argument("--min-distance", type=float, default=32.0)
    parser.add_argument("--max-distance", type=float, default=4096.0)
    parser.add_argument("--ordering", default="distance",
                        choices=("distance", "independent", "predictable"))


def _build_pairs(trace, args):
    if getattr(args, "load", None):
        return load_pair_set(args.load)
    if args.policy == "heuristics":
        return heuristic_pairs(trace, HeuristicConfig())
    return select_profile_pairs(trace, _profile_config(args))


def cmd_workloads(args) -> int:
    from repro.workloads import SPECINT95

    for name, spec in SPECINT95.items():
        print(f"{name:10s} {spec.description}")
    return 0


def cmd_trace(args) -> int:
    export = args.out or args.metrics or args.smoke or args.telemetry
    if args.workload is None and not args.smoke:
        print("trace: a workload is required (or --smoke)", file=sys.stderr)
        return 2
    workload = args.workload or "compress"
    scale = args.scale if args.scale is not None else (
        0.25 if args.smoke else 1.0
    )
    if not export:
        trace = load_trace(workload, scale, max_steps=args.max_steps)
        branches = sum(1 for d in trace if d.taken is not None)
        taken = sum(1 for d in trace if d.taken)
        loads = sum(1 for d in trace if d.op is Opcode.LOAD)
        stores = sum(1 for d in trace if d.op is Opcode.STORE)
        calls = sum(1 for d in trace if d.op is Opcode.CALL)
        print(f"workload          {workload} (scale {scale})")
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
    import json

    from repro.obs import (
        EventTracer,
        MetricsRegistry,
        TimelineModel,
        events_metrics,
        sim_metrics,
        validate_chrome_trace,
    )

    import time

    out_path = args.out or ("trace.json" if args.smoke else None)
    metrics_path = args.metrics or ("metrics.json" if args.smoke else None)
    trace = load_trace(workload, scale, max_steps=args.max_steps)
    pairs = _build_pairs(trace, args)
    config = ProcessorConfig(
        num_thread_units=args.tus,
        value_predictor=args.vp,
        collect_timeline=True,
    )
    tracer = EventTracer()
    started = time.perf_counter()
    stats = simulate(trace, pairs, config, tracer=tracer)
    elapsed = time.perf_counter() - started
    labels = {"workload": workload, "policy": args.policy, "vp": args.vp}
    model = TimelineModel.from_stats(
        stats, args.tus, events=tracer.events,
        meta={**labels, "scale": scale, "tus": args.tus},
    )
    chrome = model.chrome_trace()
    problems = validate_chrome_trace(chrome)
    if problems:
        for problem in problems:
            print(f"trace: schema error: {problem}", file=sys.stderr)
        return 1
    print(
        f"{workload}: {stats.cycles} cycles, {stats.threads_committed} "
        f"threads, {len(tracer)} events "
        f"({len(chrome['traceEvents'])} trace entries, schema OK)"
    )
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(chrome, handle, sort_keys=True)
        print(f"wrote Chrome trace to {out_path} (open in ui.perfetto.dev)")
    if metrics_path:
        registry = MetricsRegistry()
        sim_metrics(stats, registry, **labels)
        events_metrics(tracer.events, registry, **labels)
        with open(metrics_path, "w") as handle:
            json.dump(registry.snapshot().to_dict(), handle,
                      indent=1, sort_keys=True)
        print(f"wrote metrics snapshot to {metrics_path}")
    if args.telemetry:
        # Discoverable layout: trace + events + manifest in one dir the
        # dashboard's find_telemetry-based browser picks up.
        from pathlib import Path

        from repro.obs import RunManifest

        tele = Path(args.telemetry)
        tele.mkdir(parents=True, exist_ok=True)
        (tele / "trace.json").write_text(
            json.dumps(chrome, sort_keys=True) + "\n"
        )
        (tele / "events.jsonl").write_text(tracer.to_jsonl() + "\n")
        RunManifest(
            name=f"trace/{workload}",
            config={
                "workload": workload, "scale": scale,
                "policy": args.policy, "vp": args.vp, "tus": args.tus,
            },
            seconds=elapsed,
            extra={
                "cycles": stats.cycles,
                "threads_committed": stats.threads_committed,
                "events": len(tracer),
            },
        ).write(tele)
        print(f"wrote telemetry (trace + events + manifest) to {tele}")
    return 0


def cmd_metrics(args) -> int:
    import json

    from repro.obs import (
        EventTracer,
        MetricsRegistry,
        MetricsSnapshot,
        events_metrics,
        sim_metrics,
    )

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
    import time

    trace = _trace_of(args)
    pairs = _build_pairs(trace, args)
    config = ProcessorConfig(
        num_thread_units=args.tus, value_predictor=args.vp
    )
    tracer = EventTracer()
    started = time.perf_counter()
    stats = simulate(trace, pairs, config, tracer=tracer)
    elapsed = time.perf_counter() - started
    registry = MetricsRegistry()
    labels = {
        "workload": args.workload, "policy": args.policy, "vp": args.vp
    }
    sim_metrics(stats, registry, **labels)
    events_metrics(tracer.events, registry, **labels)
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
        from pathlib import Path

        from repro.obs import RunManifest

        tele = Path(args.telemetry)
        tele.mkdir(parents=True, exist_ok=True)
        ext = {"prom": "prom", "json": "json", "jsonl": "jsonl"}
        (tele / f"metrics.{ext[args.format]}").write_text(text)
        RunManifest(
            name=f"metrics/{args.workload}",
            config={
                "workload": args.workload, "scale": args.scale,
                "policy": args.policy, "vp": args.vp, "tus": args.tus,
            },
            seconds=elapsed,
            extra={"format": args.format, "events": len(tracer)},
        ).write(tele)
        print(f"wrote telemetry (metrics + manifest) to {tele}")
    return 0


def cmd_disasm(args) -> int:
    print(disassemble(build_workload(args.workload, args.scale)), end="")
    return 0


def cmd_pairs(args) -> int:
    trace = _trace_of(args)
    pairs = _build_pairs(trace, args)
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
    trace = _trace_of(args)
    pairs = _build_pairs(trace, args)
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

    trace = _trace_of(args)
    pairs = _build_pairs(trace, args)
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
        print("lint: a workload is required (or --list-rules, "
              "--docstrings)", file=sys.stderr)
        return 2
    program = build_workload(args.workload, args.scale)
    try:
        report = lint_program(program, ignore=args.ignore or ())
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
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

    trace = _trace_of(args)
    pairs = _build_pairs(trace, args)
    report = validate_pairs(trace.program, pairs)
    print(f"{args.workload}: {report.summary()}")
    for finding in report:
        print(f"  {finding.format()}")
    return 1 if report.errors() else 0


def cmd_analyze_deps(args) -> int:
    from repro.analysis.dependence import analyze_pairs

    trace = _trace_of(args)
    pairs = _build_pairs(trace, args)
    reports = analyze_pairs(trace.program, pairs)
    print(f"{args.workload}: {len(reports)} pair(s) analysed")
    for report in reports.values():
        print(f"  {report.format()}")
    if args.json:
        import json

        payload = {
            "workload": args.workload,
            "pairs": [r.to_dict() for r in reports.values()],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"wrote JSON report to {args.json}")
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
            if policy == "heuristics":
                pairs = heuristic_pairs(trace, HeuristicConfig())
            else:
                pairs = select_profile_pairs(trace, ProfilePolicyConfig())
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
        import json

        payload = {
            "ok": violations == 0,
            "scale": scale,
            "seed": args.seed,
            "fault_rate": args.fault_rate,
            "runs": runs,
        }
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"wrote JSON report to {args.report}")
    return 1 if violations else 0


def cmd_faults(args) -> int:
    from repro.experiments.framework import SweepCheckpoint
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
            print(f"faults: bad --rates value {args.rates!r}", file=sys.stderr)
            return 2
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
    checkpoint = SweepCheckpoint(args.checkpoint) if args.checkpoint else None
    result = run_campaign(
        spec,
        checkpoint=checkpoint,
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
        import json

        with open(args.report, "w") as handle:
            json.dump(result.to_dict(), handle, indent=1, sort_keys=True)
        print(f"wrote JSON report to {args.report}")
    return 0 if result.ok else 1


def cmd_figure(args) -> int:
    from repro.experiments.figures import ALL_FIGURES

    if args.name not in ALL_FIGURES:
        print(f"unknown figure {args.name!r}; pick from "
              f"{', '.join(ALL_FIGURES)}", file=sys.stderr)
        return 2
    print(ALL_FIGURES[args.name](args.scale).render())
    return 0


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
    from repro.experiments.framework import SweepCheckpoint
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
    checkpoint = SweepCheckpoint(args.checkpoint) if args.checkpoint else None
    progress = None
    if args.verbose:
        def progress(key, outcome, resumed):
            state = ("resumed" if resumed
                     else "ok" if outcome.ok else "FAILED")
            print(f"  {key}: {state}", file=sys.stderr)
    result = run_figure(
        figure, args.scale, engine, checkpoint=checkpoint, progress=progress
    )
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
            f"requeues={fleet.get('requeues', 0)}, "
            f"steals={sum(fleet.get('steals', {}).values())}",
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
    # warm: derive trace + pair-set artifacts for the whole suite so a
    # following sweep starts from a hot cache.
    from repro.experiments import framework

    with framework.use_cache(cache):
        for name in framework.suite(args.scale):
            framework.trace_for(name, args.scale)
            for policy in ("profile", "heuristics"):
                framework.pair_set_for(name, policy, args.scale)
            if args.verbose:
                print(f"  warmed {name}", file=sys.stderr)
    framework.clear_memos()
    stats = cache.stats
    print(f"warmed {cache.root}: {stats.puts} artifact(s) written, "
          f"{stats.hits} already present")
    return 0


def cmd_bench(args) -> int:
    import tempfile

    from repro.experiments.bench import (
        run_bench,
        run_simcore_bench,
        write_bench_report,
        write_simcore_report,
    )

    figure = _normalize_figure(args.fig)
    scale = 0.2 if args.smoke and args.scale is None else (args.scale or 0.3)
    # The committed sim-core report runs the paper grid at full scale:
    # the speed-up gate only means anything when simulation dominates
    # the fixed per-run costs.
    simcore_scale = (
        0.12 if args.smoke and args.scale is None else (args.scale or 1.0)
    )
    progress = (lambda line: print(line, file=sys.stderr))

    def bench(cache_dir: str):
        parallel = None
        if not args.skip_parallel:
            parallel = run_bench(
                figure=figure,
                scale=scale,
                jobs=args.jobs,
                cache_dir=cache_dir,
                progress=progress,
                backend=args.backend,
            )
        simcore = None
        if not args.skip_simcore:
            simcore = run_simcore_bench(
                scale=simcore_scale,
                cache_dir=cache_dir,
                progress=progress,
                # At smoke scale the fixed per-run costs dominate, so
                # only the correctness/cache gates decide pass/fail.
                enforce_speedup=not args.smoke,
            )
        return parallel, simcore

    ok = True
    if not (args.skip_parallel and args.skip_simcore):
        if args.cache_dir:
            report, simcore = bench(args.cache_dir)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
                report, simcore = bench(tmp)
        if report is not None:
            path = write_bench_report(report, args.out)
            print(f"wrote {path} (equal_results={report['equal_results']}, "
                  f"warm speedup jobs=1 {report['warm_speedup_jobs1']}x, "
                  f"jobs={report['parallel_jobs']} "
                  f"{report['warm_speedup_jobsN']}x)")
            ok = report["equal_results"]
        if simcore is not None:
            simcore_path = write_simcore_report(simcore, args.simcore_out)
            sweep = simcore["sweep"]
            print(
                f"wrote {simcore_path} (equal_results="
                f"{simcore['equal_results']}, cold sweep speedup event "
                f"{sweep['speedup']}x, warm columns hit rate "
                f"{simcore['columns_cache']['warm_hit_rate']:.0%})"
            )
            ok = ok and simcore["ok"]
    if args.dist:
        from repro.dist.bench import run_dist_bench, write_dist_report

        try:
            fleet_sizes = tuple(
                int(token)
                for token in args.workers.split(",")
                if token.strip() != ""
            )
        except ValueError:
            print(f"bench: bad --workers value {args.workers!r}",
                  file=sys.stderr)
            return 2
        dist = run_dist_bench(
            figure=_normalize_figure(args.dist_fig),
            scale=0.12 if args.smoke else 0.25,
            fleet_sizes=fleet_sizes or ((2,) if args.smoke else (2, 4)),
            skip_chaos=args.skip_chaos,
            progress=progress,
        )
        dist_path = write_dist_report(dist, args.dist_out)
        chaos = dist.get("chaos") or {}
        print(
            f"wrote {dist_path} (equal_results={dist['equal_results']}"
            + (
                f", chaos lost={chaos.get('lost')} "
                f"requeues={chaos.get('requeues')}"
                if chaos else ""
            )
            + ")"
        )
        ok = ok and dist["ok"]
    return 0 if ok else 1


def cmd_serve(args) -> int:
    import tempfile
    from pathlib import Path

    if args.smoke:
        from repro.serve.bench import run_serve_smoke

        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            report = run_serve_smoke(Path(tmp) / "state")
        for check in report["checks"]:
            status = "ok" if check["ok"] else "FAIL"
            detail = (
                f"  ({check['detail']})"
                if check["detail"] and not check["ok"] else ""
            )
            print(f"  {check['name']:20s} {status}{detail}")
        passed = sum(1 for check in report["checks"] if check["ok"])
        print(f"serve smoke: {passed}/{len(report['checks'])} checks, "
              f"{report['jobs']} job(s)")
        return 0 if report["ok"] else 1

    if args.bench:
        from repro.serve.bench import run_serve_bench, write_serve_report

        progress = (lambda line: print(line, file=sys.stderr))

        def bench(workdir: str):
            return run_serve_bench(
                workdir,
                clients=args.clients,
                chaos_jobs=args.chaos_jobs,
                skip_chaos=args.skip_chaos,
                progress=progress,
            )

        if args.workdir:
            report = bench(args.workdir)
        else:
            with tempfile.TemporaryDirectory(
                prefix="repro-serve-bench-"
            ) as tmp:
                report = bench(tmp)
        path = write_serve_report(report, args.out)
        chaos = report.get("chaos", {})
        print(
            f"wrote {path} (cold p99 "
            f"{report['cold']['completion']['p99_ms']}ms, hot submit "
            f"p99 {report['hot']['submit']['p99_ms']}ms, "
            f"all_cached={report['hot']['all_cached']}"
            + (
                f", chaos exactly_once={chaos['exactly_once']}"
                if chaos else ""
            )
            + ")"
        )
        return 0 if report["ok"] else 1

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
    from repro.obs import validate_chrome_trace

    if args.smoke:
        report = run_smoke()
        for check in report["checks"]:
            status = "ok" if check["ok"] else "FAIL"
            detail = (
                f"  ({check['detail']})"
                if check["detail"] and not check["ok"] else ""
            )
            print(f"  {check['name']:20s} {status}{detail}")
        passed = sum(1 for check in report["checks"] if check["ok"])
        print(
            f"dashboard smoke: {passed}/{len(report['checks'])} checks"
        )
        return 0 if report["ok"] else 1

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
        print(f"dashboard: {exc}", file=sys.stderr)
        return 2

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
        print(f"worker: {exc}", file=sys.stderr)
        return 2


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
        import json

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
    p.add_argument("workload", nargs="?", choices=workload_names(),
                   help="workload (optional with --smoke)")
    p.add_argument("--scale", type=float, default=None,
                   help="workload size multiplier (default 1.0; "
                   "0.25 with --smoke)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="functional-execution step budget (a workload "
                   "that does not halt within it fails fast)")
    _add_policy_args(p)
    p.add_argument("--tus", type=int, default=8, help="thread units")
    p.add_argument("--vp", default="stride",
                   choices=("perfect", "stride", "fcm", "last", "none"))
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
    _add_workload_arg(d)
    _add_policy_args(d)
    d.add_argument("--tus", type=int, default=16, help="thread units")
    d.add_argument("--vp", default="stride",
                   choices=("perfect", "stride", "fcm", "last", "none"))
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
    _add_workload_arg(p)

    p = sub.add_parser("pairs", help="select and print spawning pairs")
    _add_workload_arg(p)
    _add_policy_args(p)
    p.add_argument("--save", help="write the pair table to a JSON file")

    p = sub.add_parser("simulate", help="run the CSMT simulator")
    _add_workload_arg(p)
    _add_policy_args(p)
    p.add_argument("--load", help="load a pair table instead of selecting")
    p.add_argument("--tus", type=int, default=16, help="thread units")
    p.add_argument("--vp", default="perfect",
                   choices=("perfect", "stride", "fcm", "last", "none"))
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
    _add_workload_arg(p)
    _add_policy_args(p)
    p.add_argument("--tus", type=int, default=8)
    p.add_argument("--vp", default="perfect",
                   choices=("perfect", "stride", "fcm", "last", "none"))
    p.add_argument("--width", type=int, default=100)

    p = sub.add_parser("lint", help="static workload linter")
    p.add_argument("workload", nargs="?", choices=workload_names())
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier (default 1.0)")
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
    _add_workload_arg(p)
    _add_policy_args(p)
    p.add_argument("--load", help="validate a saved pair table instead")

    p = sub.add_parser(
        "analyze-deps",
        help="static memory-dependence analysis of spawning pairs",
    )
    _add_workload_arg(p)
    _add_policy_args(p)
    p.add_argument("--load", help="analyse a saved pair table instead")
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
    p.add_argument("--scale", type=float, default=0.2,
                   help="workload size multiplier (default 0.2)")
    p.add_argument("--tus", type=int, default=8, help="thread units")
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
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--policy", choices=("profile", "heuristics"),
                   default="profile")
    p.add_argument("--tus", type=int, default=16, help="thread units")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-run wall-clock limit in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per run")
    p.add_argument("--checkpoint",
                   help="JSON checkpoint file; completed runs are resumed")
    p.add_argument("--report", help="write the JSON degradation report here")
    p.add_argument("--smoke", action="store_true",
                   help="small fixed campaign for CI (overrides sweep args)")
    p.add_argument("--verbose", action="store_true",
                   help="print per-run progress to stderr")
    p.add_argument("--inject-crash", action="append", metavar="KEY",
                   help="crash KEY's first attempt (resilience testing; "
                   "KEY is workload@rate)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1 = serial)")
    p.add_argument("--cache-dir", default=None,
                   help="artifact-cache directory shared by the workers")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="write per-run provenance manifests (config "
                   "digest, fault seed, wall time) plus a campaign "
                   "rollup into DIR")
    p.add_argument("--backend",
                   choices=("serial", "process", "remote"),
                   default=None,
                   help="executor backend (default: serial for --jobs 1, "
                   "process otherwise)")
    p.add_argument("--workers", type=int, default=None,
                   help="backend parallelism (default: --jobs)")

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("name", help="figure2 .. figure12 (a/b variants)")
    p.add_argument("--scale", type=float, default=1.0)

    p = sub.add_parser(
        "exp",
        help="reproduce a figure through the parallel engine",
    )
    p.add_argument("--fig", required=True,
                   help="figure to reproduce (8 or figure8)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: CPU count; 1 = the "
                   "bit-identical serial path)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--cache-dir", default=None,
                   help="on-disk artifact cache shared across runs")
    p.add_argument("--checkpoint",
                   help="JSON checkpoint file; completed points resume")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point wall-clock limit in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per point")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="write per-point provenance manifests (config "
                   "digest, seed, cache delta, wall time) plus a sweep "
                   "rollup into DIR")
    p.add_argument("--verbose", action="store_true",
                   help="print per-point progress to stderr")
    p.add_argument("--backend",
                   choices=("serial", "process", "remote"),
                   default=None,
                   help="executor backend (default: serial for --jobs 1, "
                   "process otherwise)")
    p.add_argument("--workers", type=int, default=None,
                   help="backend parallelism (default: --jobs; fleet "
                   "size for --backend remote)")

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
    p.add_argument("--kind", default=None,
                   help="restrict 'clear' to one artifact kind")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload scale to warm (with 'warm')")
    p.add_argument("--verbose", action="store_true",
                   help="print per-workload warm progress to stderr")

    p = sub.add_parser(
        "bench",
        help="benchmark the parallel engine and artifact cache",
    )
    p.add_argument("--fig", default="figure8",
                   help="figure sweep to benchmark (default figure8)")
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale (default 0.3; 0.2 with --smoke)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker count of the jobs=N phases "
                   "(default: CPU count)")
    p.add_argument("--smoke", action="store_true",
                   help="small fast benchmark for CI")
    p.add_argument("--out", default="BENCH_parallel.json",
                   help="report path (default BENCH_parallel.json)")
    p.add_argument("--simcore-out", default="BENCH_simcore.json",
                   help="sim-core report path (default BENCH_simcore.json)")
    p.add_argument("--skip-simcore", action="store_true",
                   help="skip the simulator-core benchmark phase")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: a fresh temp dir)")
    p.add_argument("--dist", action="store_true",
                   help="also run the distributed-backend benchmark "
                   "(serial vs process vs remote fleets, cold vs warm "
                   "shared cache, kill -9 chaos leg)")
    p.add_argument("--skip-parallel", action="store_true",
                   help="skip the parallel-engine phase (combine with "
                   "--skip-simcore and --dist for the distributed "
                   "benchmark only)")
    p.add_argument("--dist-fig", default="figure3",
                   help="figure sweep of the --dist benchmark "
                   "(default figure3)")
    p.add_argument("--dist-out", default="BENCH_dist.json",
                   help="--dist report path (default BENCH_dist.json)")
    p.add_argument("--workers", default="",
                   help="comma-separated remote fleet sizes for --dist "
                   "(default 2,4; 2 with --smoke)")
    p.add_argument("--skip-chaos", action="store_true",
                   help="skip the --dist kill -9 chaos leg")
    p.add_argument("--backend",
                   choices=("process", "remote"),
                   default=None,
                   help="executor backend of the jobs=N phases "
                   "(default process)")

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
                   "journal recovery) and exit")
    p.add_argument("--bench", action="store_true",
                   help="load + chaos benchmark writing BENCH_serve.json")
    p.add_argument("--out", default="BENCH_serve.json",
                   help="bench report path (default BENCH_serve.json)")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent bench clients (default 4)")
    p.add_argument("--chaos-jobs", type=int, default=12,
                   help="jobs in flight when the chaos leg kills the "
                   "daemon (default 12)")
    p.add_argument("--skip-chaos", action="store_true",
                   help="skip the kill -9 / restart bench leg")
    p.add_argument("--workdir", default=None,
                   help="bench scratch directory (default: temp dir)")

    p = sub.add_parser(
        "dashboard",
        help="live web UI over timelines, event streams, metrics and "
        "sweep manifests (docs/dashboard.md)",
    )
    p.add_argument("workload", nargs="?", choices=workload_names(),
                   help="workload backing the startup simulation "
                   "(default compress; ignored with --trace)")
    p.add_argument("--scale", type=float, default=0.25,
                   help="workload size multiplier (default 0.25)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="functional-execution step budget (a workload "
                   "that does not halt within it fails fast)")
    p.add_argument("--policy", choices=("profile", "heuristics"),
                   default="profile")
    p.add_argument("--tus", type=int, default=8, help="thread units")
    p.add_argument("--vp", default="stride",
                   choices=("perfect", "stride", "fcm", "last", "none"))
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
    p.add_argument("workload", choices=workload_names())
    p.add_argument("--scale", type=float, default=0.3,
                   help="workload size multiplier (default 0.3)")
    p.add_argument("--policy", choices=("profile", "heuristics"),
                   default="profile")
    p.add_argument("--vp", default="stride",
                   choices=("perfect", "stride", "fcm", "last", "none"))
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
    "figure": cmd_figure,
    "lint": cmd_lint,
    "validate-pairs": cmd_validate_pairs,
    "analyze-deps": cmd_analyze_deps,
    "sanitize": cmd_sanitize,
    "faults": cmd_faults,
    "exp": cmd_exp,
    "worker": cmd_worker,
    "cache": cmd_cache,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "dashboard": cmd_dashboard,
    "profile": cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SimulationError, ExecutionError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
