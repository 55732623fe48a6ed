"""Performance benchmarks: parallel engine/cache and the simulator core.

``repro bench`` runs one figure sweep (Figure 8 by default: the full
suite under both spawning policies) through four phases — jobs=1 and
jobs=N, each cold-cache then warm-cache — measuring wall-clock seconds
and cache hit rates, and verifying that every phase produced identical
figure series.  The report seeds the repository's performance
trajectory as ``BENCH_parallel.json``.

:func:`run_simcore_bench` benchmarks the simulator cores themselves: it
measures cold/warm columnar-trace builds through the artifact cache,
checks the event core against the legacy dict-based core for
bit-identical stats across the whole workload × policy × predictor
grid (plus a deterministic fault-injected leg), and times the full
paper grid — every workload under both spawning policies and all of
:data:`SIMCORE_PREDICTORS`, with single-threaded baselines — under
each core (jobs=1, warm traces and pairs).  The report is
``BENCH_simcore.json``; its gates are ``equal_results`` (the cores
agree everywhere) and ``columns_cache.warm_hit_rate == 1.0`` (a warm
build never recomputes columns), with the event core's cold-sweep
speed-up over legacy checked against :data:`SIMCORE_SPEEDUP_TARGET`
on full-scale runs.

In-process memos are cleared between phases so the numbers measure the
on-disk artifact cache, not Python dict lookups.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.cache import ArtifactCache, generator_version
from repro.experiments import framework
from repro.experiments.engine import ParallelEngine, run_figure

__all__ = [
    "run_bench",
    "write_bench_report",
    "run_simcore_bench",
    "write_simcore_report",
    "SIMCORE_SPEEDUP_TARGET",
]


def _phase(
    label: str,
    figure: str,
    scale: float,
    jobs: int,
    cache_dir: str,
    progress: Optional[Callable[[str], None]] = None,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one bench phase and measure it; returns the phase record."""
    framework.clear_memos()
    engine = ParallelEngine(jobs=jobs, cache_dir=cache_dir, backend=backend)
    start = time.perf_counter()
    result = run_figure(figure, scale, engine)
    seconds = time.perf_counter() - start
    record = {
        "label": label,
        "jobs": jobs,
        "seconds": round(seconds, 4),
        "cache": dict(engine.cache_events),
        "cache_hit_rate": round(engine.cache_hit_rate(), 4),
        "series": result.series,
    }
    if progress is not None:
        progress(
            f"{label}: {seconds:.2f}s, hit rate "
            f"{record['cache_hit_rate']:.0%}"
        )
    return record


def run_bench(
    figure: str = "figure8",
    scale: float = 0.3,
    jobs: Optional[int] = None,
    cache_dir: Union[str, Path, None] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Benchmark a figure sweep: jobs=1 vs jobs=N, cold vs warm cache.

    Args:
        figure: Figure driver to sweep (default ``figure8``).
        scale: Workload size multiplier.
        jobs: Parallel worker count for the jobs=N phases (default:
            ``os.cpu_count()`` via the engine).
        cache_dir: Artifact-cache directory (required; the caller owns
            its lifetime — ``repro bench`` uses a temporary directory).
        progress: Optional per-phase status callback.
        backend: Executor backend of the jobs=N phases (None keeps the
            historical ``process`` fan-out).

    Returns:
        The benchmark report: per-phase wall-clock and cache counters,
        derived speedups, and an ``equal_results`` flag confirming all
        phases produced identical figure series.
    """
    if cache_dir is None:
        raise ValueError("run_bench needs an explicit cache_dir")
    cache_dir = str(cache_dir)
    cache = ArtifactCache(cache_dir)
    parallel_jobs = ParallelEngine(jobs=jobs).jobs

    phases: List[Dict[str, Any]] = []
    cache.clear()
    phases.append(_phase("jobs1_cold", figure, scale, 1, cache_dir, progress))
    phases.append(_phase("jobs1_warm", figure, scale, 1, cache_dir, progress))
    cache.clear()
    phases.append(
        _phase("jobsN_cold", figure, scale, parallel_jobs, cache_dir,
               progress, backend)
    )
    phases.append(
        _phase("jobsN_warm", figure, scale, parallel_jobs, cache_dir,
               progress, backend)
    )
    framework.clear_memos()

    by_label = {p["label"]: p for p in phases}
    first_series = phases[0]["series"]
    equal = all(p["series"] == first_series for p in phases)

    def ratio(cold: str, warm: str) -> float:
        denom = by_label[warm]["seconds"]
        return round(by_label[cold]["seconds"] / denom, 2) if denom else float("inf")

    report = {
        "figure": figure,
        "scale": scale,
        "parallel_jobs": parallel_jobs,
        "backend": backend or "process",
        "generator_version": generator_version(),
        "python": platform.python_version(),
        "phases": {
            p["label"]: {k: v for k, v in p.items() if k != "series"}
            for p in phases
        },
        "warm_speedup_jobs1": ratio("jobs1_cold", "jobs1_warm"),
        "warm_speedup_jobsN": ratio("jobsN_cold", "jobsN_warm"),
        "equal_results": equal,
    }
    return report


def write_bench_report(
    report: Dict[str, Any], path: Union[str, Path] = "BENCH_parallel.json"
) -> Path:
    """Write a bench report as pretty JSON; returns the written path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Simulator-core benchmark (BENCH_simcore.json).
# ----------------------------------------------------------------------

#: Minimum cold-sweep speed-up (legacy seconds / event seconds) the
#: full-scale benchmark must demonstrate.
SIMCORE_SPEEDUP_TARGET = 4.0

#: Simulator cores under test, reference core first.
SIMCORE_CORES = ("legacy", "event")

#: Spawning policies of the equal-stats grid (the two pair schemes the
#: paper compares).
SIMCORE_POLICIES = ("profile", "heuristics")

#: Live-in value predictors of the equal-stats grid.
SIMCORE_PREDICTORS = ("perfect", "stride", "fcm")


def _columns_cache_phase(
    cache_dir: str,
    scale: float,
    names: List[str],
    progress: Optional[Callable[[str], None]],
) -> Dict[str, Any]:
    """Cold/warm columnar-trace builds through the artifact cache."""

    def build_all(cache: ArtifactCache) -> float:
        framework.clear_memos()
        start = time.perf_counter()
        with framework.use_cache(cache):
            for name in names:
                framework.trace_for(name, scale)
        return time.perf_counter() - start

    cold_cache = ArtifactCache(cache_dir)
    cold_cache.clear()
    cold_seconds = build_all(cold_cache)
    # A fresh ArtifactCache instance over the same directory: the memory
    # LRU starts empty, so every warm lookup must be served from disk.
    warm_cache = ArtifactCache(cache_dir)
    warm_seconds = build_all(warm_cache)
    framework.clear_memos()
    record = {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "cold": cold_cache.stats.to_dict(),
        "warm": warm_cache.stats.to_dict(),
        "warm_hit_rate": round(warm_cache.stats.hit_rate, 4),
    }
    if progress is not None:
        progress(
            f"columns cache: cold {cold_seconds:.2f}s, warm "
            f"{warm_seconds:.2f}s (hit rate "
            f"{record['warm_hit_rate']:.0%})"
        )
    return record


def _equal_stats_phase(
    scale: float,
    names: List[str],
    progress: Optional[Callable[[str], None]],
) -> Dict[str, Any]:
    """Event core vs legacy: bit-identical stats across the whole grid.

    Besides the healthy workload × policy × predictor grid, one
    deterministic fault-injected point (TU blackouts) pins the cores'
    agreement on the injector leg, where the event core degrades to
    poll parking and still books through the issue rings.
    """
    from repro.cmt import simulate
    from repro.faults import FaultInjector, FaultPlan, TUBlackoutFault

    base = framework.EXPERIMENT_CONFIG
    points = 0
    mismatches: List[str] = []

    def compare(label, trace, pairs, config, plan=None):
        nonlocal points
        reference = None
        for core in SIMCORE_CORES:
            injector = FaultInjector(plan) if plan is not None else None
            stats = simulate(
                trace, pairs, config.with_(sim_core=core), injector
            ).to_dict()
            if reference is None:
                reference = stats
            elif stats != reference:
                mismatches.append(f"{label}/{core}")
        points += 1

    for name in names:
        trace = framework.trace_for(name, scale)
        for policy in SIMCORE_POLICIES:
            pairs = framework.pair_set_for(name, policy, scale)
            for predictor in SIMCORE_PREDICTORS:
                compare(
                    f"{name}/{policy}/{predictor}",
                    trace,
                    pairs,
                    base.with_(value_predictor=predictor),
                )
    fault_name = names[0]
    plan = FaultPlan(
        seed=7,
        tu_blackout=TUBlackoutFault(rate=0.5, duration=120, slot_cycles=200),
    )
    compare(
        f"{fault_name}/profile/stride/faults",
        framework.trace_for(fault_name, scale),
        framework.pair_set_for(fault_name, "profile", scale),
        base.with_(value_predictor="stride"),
        plan=plan,
    )
    record = {
        "points": points,
        "cores": list(SIMCORE_CORES),
        "fault_injected_points": 1,
        "mismatches": mismatches,
        "equal_results": not mismatches,
    }
    if progress is not None:
        progress(
            f"equal-stats grid: {points} points x {len(SIMCORE_CORES)} "
            f"cores, {len(mismatches)} mismatch(es)"
        )
    return record


def _sweep_phase(
    scale: float,
    names: List[str],
    progress: Optional[Callable[[str], None]],
    repeats: int = 2,
) -> Dict[str, Any]:
    """Cold paper-grid sweep (jobs=1) under each core, warm trace/pairs.

    The grid is every workload under both spawning policies and every
    predictor in :data:`SIMCORE_PREDICTORS`, plus one single-threaded
    baseline per workload.  Each core's sweep runs ``repeats`` times
    and reports the fastest pass (the standard defence against one-off
    scheduler/allocator noise on shared machines); every pass must
    produce the same series.
    """
    from repro.cmt import simulate
    from repro.spawning import SpawnPairSet

    traces = {name: framework.trace_for(name, scale) for name in names}
    for trace in traces.values():
        trace.columns  # build once: the sweep times simulation only
    pair_sets = {
        (name, policy): framework.pair_set_for(name, policy, scale)
        for name in names
        for policy in SIMCORE_POLICIES
    }
    base = framework.EXPERIMENT_CONFIG
    cores: Dict[str, Dict[str, Any]] = {}
    for core in SIMCORE_CORES:
        config = base.with_(sim_core=core)
        single = config.single_threaded()
        runs: List[float] = []
        instructions = 0
        series: Dict[str, Dict[str, Any]] = {}
        for _ in range(max(repeats, 1)):
            instructions = 0
            series = {}
            start = time.perf_counter()
            for name in names:
                baseline = simulate(traces[name], SpawnPairSet([]), single)
                instructions += baseline.instructions
                row: Dict[str, Any] = {"baseline": baseline.cycles}
                for policy in SIMCORE_POLICIES:
                    cells = {}
                    for predictor in SIMCORE_PREDICTORS:
                        stats = simulate(
                            traces[name],
                            pair_sets[(name, policy)],
                            config.with_(value_predictor=predictor),
                        )
                        instructions += stats.instructions
                        cells[predictor] = stats.cycles
                    row[policy] = cells
                series[name] = row
            runs.append(time.perf_counter() - start)
        seconds = min(runs)
        cores[core] = {
            "sim_core": core,
            "seconds": round(seconds, 4),
            "runs": [round(s, 4) for s in runs],
            "instructions": instructions,
            "insts_per_sec": round(instructions / seconds) if seconds else 0,
            "series": series,
        }
        if progress is not None:
            progress(
                f"sweep [{core}]: {seconds:.2f}s best of {len(runs)} "
                f"({cores[core]['insts_per_sec']:,} insts/sec)"
            )
    legacy_seconds = cores["legacy"]["seconds"]
    speedups = {
        core: (
            round(legacy_seconds / cores[core]["seconds"], 3)
            if cores[core]["seconds"]
            else float("inf")
        )
        for core in SIMCORE_CORES
        if core != "legacy"
    }
    legacy_series = cores["legacy"]["series"]
    equal_series = all(
        cores[core]["series"] == legacy_series for core in SIMCORE_CORES
    )
    record: Dict[str, Any] = {
        core: {k: v for k, v in cores[core].items() if k != "series"}
        for core in SIMCORE_CORES
    }
    record["speedups"] = speedups
    record["speedup"] = speedups["event"]
    record["equal_series"] = equal_series
    if progress is not None:
        progress(
            f"sweep speedup: event {speedups['event']}x "
            f"(series equal: {equal_series})"
        )
    return record


def run_simcore_bench(
    scale: float = 0.3,
    cache_dir: Union[str, Path, None] = None,
    progress: Optional[Callable[[str], None]] = None,
    enforce_speedup: bool = True,
    speedup_target: float = SIMCORE_SPEEDUP_TARGET,
) -> Dict[str, Any]:
    """Benchmark the event core against the legacy core.

    Args:
        scale: Workload size multiplier (1.0 for the committed report;
            smoke runs use a smaller scale).
        cache_dir: Artifact-cache directory for the cold/warm
            columnar-build phase (required; the caller owns it).
        progress: Optional per-phase status callback.
        enforce_speedup: Include the cold-sweep speed-up in the
            report's overall ``ok`` flag.  Smoke runs disable this —
            at tiny scales fixed costs dominate, so only the
            correctness and cache gates are load-bearing there.
        speedup_target: Required cold-sweep speed-up when enforced.

    Returns:
        The benchmark report (the ``BENCH_simcore.json`` payload):
        per-phase records, the gate results, the top-level
        ``equal_results`` flag, and ``ok``.
    """
    if cache_dir is None:
        raise ValueError("run_simcore_bench needs an explicit cache_dir")
    from repro.workloads import workload_names

    names = list(workload_names())
    columns_cache = _columns_cache_phase(
        str(cache_dir), scale, names, progress
    )
    equal_stats = _equal_stats_phase(scale, names, progress)
    sweep = _sweep_phase(scale, names, progress)
    framework.clear_memos()

    equal_results = equal_stats["equal_results"] and sweep["equal_series"]
    gates = {
        "equal_results": equal_results,
        "columns_cache_warm": columns_cache["warm_hit_rate"] == 1.0,
        "speedup": sweep["speedup"] >= speedup_target,
    }
    ok = gates["equal_results"] and gates["columns_cache_warm"]
    if enforce_speedup:
        ok = ok and gates["speedup"]
    return {
        "kind": "simcore",
        "scale": scale,
        "workloads": names,
        "cores": list(SIMCORE_CORES),
        "policies": list(SIMCORE_POLICIES),
        "predictors": list(SIMCORE_PREDICTORS),
        "generator_version": generator_version(),
        "python": platform.python_version(),
        "columns_cache": columns_cache,
        "equal_stats": equal_stats,
        "sweep": sweep,
        "speedup_target": speedup_target,
        "speedup_enforced": enforce_speedup,
        "gates": gates,
        "equal_results": equal_results,
        "ok": ok,
    }


def write_simcore_report(
    report: Dict[str, Any], path: Union[str, Path] = "BENCH_simcore.json"
) -> Path:
    """Write a sim-core bench report as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path
