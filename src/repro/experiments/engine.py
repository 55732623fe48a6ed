"""Parallel experiment engine: fan sweep points across worker processes.

Every figure in the paper's evaluation is an embarrassingly parallel
sweep over (workload x policy x thread-unit count).  This module turns
such a sweep into a list of pickle-safe :class:`Point` specs, sends them
through a pluggable executor :class:`~repro.dist.backend.Backend`
(``serial`` for ``jobs=1``, ``process`` or ``remote`` otherwise), where
each point runs under the one attempt runner
:func:`~repro.experiments.framework.run_resilient`, and reassembles
results in deterministic input order regardless of completion order.

Workers share the on-disk :class:`~repro.cache.ArtifactCache` when one
is configured, so traces/pairs/baselines are derived once per sweep and
whole point results are memoized across runs.  A
:class:`~repro.experiments.framework.SweepCheckpoint` integrates for
resume: completed point keys are skipped on restart.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cache import ArtifactCache
from repro.errors import InvariantViolation, SimulationTimeout
from repro.experiments import figures as figures_mod
from repro.experiments import framework
from repro.experiments.framework import (
    EXPERIMENT_CONFIG,
    FigureResult,
    ResilientOutcome,
    SweepCheckpoint,
)

__all__ = [
    "Point",
    "ParallelEngine",
    "figure_points",
    "run_figure",
    "execute_point",
    "POINT_RUNNERS",
    "CACHED_RUNNERS",
]


@dataclass(frozen=True)
class Point:
    """One pickle-safe unit of sweep work.

    Args:
        key: Stable identifier (checkpoint key and result-ordering key).
        runner: Name of a registered runner in :data:`POINT_RUNNERS`.
        params: Keyword arguments of the runner — JSON-able primitives
            only, so a point can cross a process boundary and key the
            artifact cache.
    """

    key: str
    runner: str
    params: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Point runners.  Top-level functions (pickle-safe); each returns a
# JSON-serialisable payload so outcomes survive checkpoints and caches.
# ----------------------------------------------------------------------


def _runner_simulate(
    name: str, policy: str, scale: float, overrides: Dict[str, Any]
) -> Dict[str, Any]:
    """Simulate one (workload, policy, configuration) figure point."""
    config = EXPERIMENT_CONFIG.with_(**overrides)
    stats = framework.run_policy(name, policy, config, scale)
    baseline = framework.baseline_cycles(name, config, scale)
    return {
        "cycles": stats.cycles,
        "baseline": baseline,
        "speedup": baseline / stats.cycles if stats.cycles else 0.0,
        "avg_active_threads": stats.avg_active_threads,
        "avg_thread_size": stats.avg_thread_size,
        "value_hit_rate": stats.value_hit_rate,
    }


def _runner_campaign(
    spec_fields: Dict[str, Any],
    workload: str,
    rate: float,
    sequential: int,
    faultless: int,
    crash_key: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one fault-injection campaign point (see ``faults.campaign``)."""
    from repro.faults.campaign import run_point

    return run_point(
        spec_fields, workload, rate, sequential, faultless, crash_key
    )


def _runner_sleep(
    duration: float = 0.1,
    fail: Optional[str] = None,
    fail_file: Optional[str] = None,
    tag: Optional[str] = None,
) -> Dict[str, Any]:
    """Deterministic test/bench workload: sleep, optionally misbehave.

    Args:
        duration: Seconds to sleep.
        fail: ``"transient"`` raises ``RuntimeError`` every attempt,
            ``"poison"`` raises ``InvariantViolation``, ``"timeout"``
            raises ``SimulationTimeout`` (all *after* sleeping).
        fail_file: Path holding a decimal count; while positive it is
            decremented and the attempt raises ``RuntimeError`` —
            retry-until-healed testing across attempts and processes.
        tag: Free-form marker echoed in the payload (also
            differentiates job digests for load generation).

    Returns:
        ``{"slept": duration, "tag": tag}`` on success.
    """
    time.sleep(max(float(duration), 0.0))
    if fail_file is not None:
        try:
            budget = int(open(fail_file).read().strip() or "0")
        except (OSError, ValueError):
            budget = 0
        if budget > 0:
            tmp = f"{fail_file}.tmp{os.getpid()}"
            with open(tmp, "w") as handle:
                handle.write(str(budget - 1))
            os.replace(tmp, fail_file)
            raise RuntimeError(f"injected transient failure ({budget} left)")
    if fail == "transient":
        raise RuntimeError("injected transient failure")
    if fail == "poison":
        raise InvariantViolation("injected invariant violation")
    if fail == "timeout":
        raise SimulationTimeout("injected timeout", seconds=duration)
    return {"slept": float(duration), "tag": tag}


#: runner name -> callable; points (and serve jobs) refer to runners by
#: name so the spec stays picklable (no closures cross the process
#: boundary).  ``sleep`` is the uncached, deterministic workload the
#: distributed tests, the serve daemon's smoke gate and the benchmarks use.
POINT_RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "simulate": _runner_simulate,
    "campaign": _runner_campaign,
    "sleep": _runner_sleep,
}

#: Runner names whose payloads are memoized in the artifact cache under
#: the ``point`` kind (sweeps and serve jobs share these artifacts).
CACHED_RUNNERS = ("simulate", "campaign")


def execute_point(point: Point, cache: Optional[ArtifactCache] = None) -> Any:
    """Run one point, memoizing its payload in the artifact cache.

    Args:
        point: The point spec to execute.
        cache: Active artifact cache (None disables point memoization).

    Returns:
        The runner's JSON-serialisable payload.
    """
    runner = POINT_RUNNERS[point.runner]
    if cache is None or point.runner not in CACHED_RUNNERS:
        return runner(**point.params)
    return cache.get_or_create(
        "point", lambda: runner(**point.params), runner=point.runner, **point.params
    )


class ParallelEngine:
    """Fan experiment points across an executor backend, with resume.

    Args:
        jobs: Worker count; ``None`` means ``os.cpu_count()``.  ``jobs=1``
            selects the ``serial`` backend: every point runs in the
            calling process, in submission order.
        cache_dir: Directory of the shared on-disk artifact cache (None
            disables disk caching; in-process memos still apply).
        timeout: Per-point wall-clock limit in seconds (None = unbounded).
        retries: Retry budget per point.
        backoff: Base of the exponential retry backoff in seconds.
        telemetry_dir: When set, :meth:`run` writes one
            :class:`~repro.obs.manifest.RunManifest` per point (config
            digest, seed, per-point cache delta, attempts, wall time,
            executing worker) plus a sweep-level rollup into this
            directory; an existing directory also seeds the
            work-stealing scheduler's cost priors.
        backend: Executor backend — a registry name (``serial``,
            ``process``, ``remote``) or a ready
            :class:`~repro.dist.backend.Backend` instance.  ``None``
            selects ``serial`` for ``jobs=1`` and ``process``
            otherwise.
        workers: Parallelism the backend should use (default ``jobs``).

    After :meth:`run`, ``cache_events`` holds aggregated cache counters
    (parent plus every worker) for the executed points, and ``fleet``
    holds the backend's fleet summary (scheduler/cache counters; empty
    for backends without one).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        telemetry_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        backend: Optional[Any] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.jobs = max(1, int(jobs) if jobs else (os.cpu_count() or 1))
        self.cache_dir = os.fspath(cache_dir) if cache_dir else None
        self.cache: Optional[ArtifactCache] = (
            ArtifactCache(self.cache_dir) if self.cache_dir else None
        )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.telemetry_dir = (
            os.fspath(telemetry_dir) if telemetry_dir else None
        )
        self.backend = backend
        self.workers = max(1, int(workers)) if workers else self.jobs
        self.backend_name = self._resolve_backend_name()
        self.cache_events: Dict[str, int] = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "puts": 0,
        }
        #: fleet summary of the last run (work-stealing/cache counters).
        self.fleet: Dict[str, Any] = {}
        #: point key -> cache-counter delta of that point's execution
        #: (only points actually run this sweep; resumed points absent).
        self._point_deltas: Dict[str, Dict[str, int]] = {}
        #: point key -> id of the worker that executed it.
        self._worker_ids: Dict[str, str] = {}

    def _resolve_backend_name(self) -> str:
        """Return the effective backend name of this engine."""
        if self.backend is None:
            return "serial" if self.jobs == 1 else "process"
        if isinstance(self.backend, str):
            return self.backend
        return getattr(self.backend, "name", "custom")

    # ------------------------------------------------------------------

    def _note_cache_delta(self, delta: Dict[str, int]) -> None:
        for key, value in delta.items():
            self.cache_events[key] = self.cache_events.get(key, 0) + value

    def cache_hit_rate(self) -> float:
        """Return the aggregated hit rate of executed points (0.0 idle)."""
        hits = self.cache_events["memory_hits"] + self.cache_events["disk_hits"]
        total = hits + self.cache_events["misses"]
        return hits / total if total else 0.0

    def run(
        self,
        points: Sequence[Point],
        checkpoint: Optional[SweepCheckpoint] = None,
        progress: Optional[Callable[[str, ResilientOutcome, bool], None]] = None,
    ) -> Dict[str, ResilientOutcome]:
        """Execute every point; results keyed and ordered as submitted.

        Args:
            points: Point specs; keys must be unique.
            checkpoint: Optional resume store — completed keys are
                loaded, not re-run, and fresh completions are recorded.
            progress: ``progress(key, outcome, resumed)`` per point.

        Returns:
            Mapping of point key to outcome, in the order of ``points``
            regardless of completion order.
        """
        keys = [p.key for p in points]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate point keys in sweep")
        started = time.perf_counter()
        results = self._run_dispatch(points, checkpoint, progress)
        if self.telemetry_dir is not None:
            self._write_telemetry(
                points, results, time.perf_counter() - started
            )
        return results

    def _run_dispatch(self, points, checkpoint, progress):
        """Execute the sweep through the executor backend.

        Resumed checkpoint keys are emitted first; the remaining to-do
        points go to the backend, whose serialized ``emit`` calls land
        results, checkpoint records, cache deltas and worker
        attribution, and report progress right after each point.
        """
        from repro.dist.backend import ExecutionPlan, create_backend

        backend = (
            create_backend(self.backend_name)
            if self.backend is None or isinstance(self.backend, str)
            else self.backend
        )
        results: Dict[str, ResilientOutcome] = {}
        todo: List[Point] = []
        for point in points:
            if checkpoint is not None and point.key in checkpoint:
                outcome = checkpoint.get(point.key)
                results[point.key] = outcome
                if progress is not None:
                    progress(point.key, outcome, True)
            else:
                todo.append(point)
        if todo:
            plan = ExecutionPlan(
                timeout=self.timeout,
                retries=self.retries,
                backoff=self.backoff,
                workers=min(self.workers, len(todo)),
                cache_dir=self.cache_dir,
                cache=self.cache,
                telemetry_dir=self.telemetry_dir,
            )

            def emit(
                key: str,
                outcome_dict: Dict[str, Any],
                delta: Dict[str, int],
                worker_id: str,
            ) -> None:
                outcome = ResilientOutcome.from_dict(outcome_dict)
                results[key] = outcome
                self._note_cache_delta(delta)
                if delta:
                    self._point_deltas[key] = delta
                self._worker_ids[key] = worker_id
                if checkpoint is not None:
                    checkpoint.record(key, outcome)
                if progress is not None:
                    progress(key, outcome, False)

            backend.execute(todo, plan, emit)
            self.fleet = backend.fleet_summary()
        missing = [p.key for p in todo if p.key not in results]
        if missing:
            raise RuntimeError(
                f"backend {self.backend_name!r} never emitted "
                f"{len(missing)} points (first: {missing[0]!r})"
            )
        return {point.key: results[point.key] for point in points}

    # ------------------------------------------------------------------
    # Telemetry manifests.
    # ------------------------------------------------------------------

    def _write_telemetry(
        self,
        points: Sequence[Point],
        results: Dict[str, ResilientOutcome],
        seconds: float,
    ) -> None:
        """Write one per-point manifest plus the sweep rollup."""
        from repro.obs.manifest import RunManifest, write_sweep_manifest

        for point in points:
            outcome = results.get(point.key)
            if outcome is None:
                continue
            seed, fault_plan = _point_provenance(point)
            worker_id = self._worker_ids.get(point.key)
            RunManifest(
                name=point.key,
                config={"runner": point.runner, **point.params},
                seed=seed,
                seconds=outcome.seconds,
                attempts=outcome.attempts,
                ok=outcome.ok,
                cache=self._point_deltas.get(point.key, {}),
                fault_plan=fault_plan,
                extra={"worker_id": worker_id} if worker_id else {},
            ).write(self.telemetry_dir)
        extra: Dict[str, Any] = {
            "ok": sum(1 for o in results.values() if o.ok),
            "failed": sum(1 for o in results.values() if not o.ok),
        }
        if self.fleet:
            extra["fleet"] = dict(self.fleet)
        write_sweep_manifest(
            self.telemetry_dir,
            name="sweep",
            points=len(points),
            config={
                "jobs": self.jobs,
                "timeout": self.timeout,
                "retries": self.retries,
                "cache_dir": self.cache_dir,
                "backend": self.backend_name,
                "workers": self.workers,
            },
            seconds=seconds,
            cache=dict(self.cache_events),
            extra=extra,
        )


def _point_provenance(point: Point):
    """Return the (seed, fault_plan) a point's manifest should record.

    Campaign points carry their spec fields; the per-workload fault seed
    is re-derived exactly as the campaign runner derives it, so the
    manifest pins the randomness that actually fired.
    """
    params = point.params
    seed = params.get("seed")
    fault_plan = None
    spec_fields = params.get("spec_fields")
    if isinstance(spec_fields, dict):
        from repro.faults.campaign import workload_seed

        campaign_seed = int(spec_fields.get("seed", 0))
        seed = campaign_seed
        if "workload" in params and "rate" in params:
            fault_plan = {
                "rate": params["rate"],
                "seed": workload_seed(campaign_seed, str(params["workload"])),
            }
    return seed, fault_plan


# ----------------------------------------------------------------------
# Figure sweeps: enumerate the (workload, policy, overrides) grid of a
# figure, run it through an engine, seed the figure memos with the
# results, and let the unchanged figure driver assemble its table.  A
# point the grid misses is simply computed serially by the driver — the
# result is identical either way.
# ----------------------------------------------------------------------


def _grid(figure: str, names: Sequence[str]) -> List[Tuple[str, str, Dict[str, Any]]]:
    """(workload, policy, config-overrides) combos one figure sweeps."""
    from repro.experiments.figures import _removal

    combos: List[Tuple[str, str, Dict[str, Any]]] = []

    def add(policy: str, names=names, **overrides: Any) -> None:
        for name in names:
            combos.append((name, policy, dict(overrides)))

    if figure in ("figure3", "figure4"):
        add("profile")
    elif figure == "figure5a":
        for cycles in (None, 50, 200):
            add("profile", removal_cycles=cycles)
    elif figure == "figure5b":
        for occurrences in (1, 8, 16):
            add("profile", removal_cycles=50, removal_occurrences=occurrences)
    elif figure == "figure6":
        for name in names:
            for reassign in (False, True):
                combos.append(
                    (name, "profile",
                     {"removal_cycles": _removal(name), "reassign": reassign})
                )
    elif figure == "figure7a":
        for name in names:
            combos.append((name, "profile", {"removal_cycles": _removal(name)}))
    elif figure == "figure7b":
        for name in names:
            for min_size in (None, 32):
                combos.append(
                    (name, "profile",
                     {"removal_cycles": _removal(name),
                      "min_thread_size": min_size})
                )
    elif figure == "figure8":
        add("profile")
        add("heuristics")
    elif figure == "figure9a":
        for vp in ("stride", "fcm"):
            for policy in ("profile", "heuristics"):
                add(policy, value_predictor=vp)
    elif figure == "figure9b":
        for policy, vp in (
            ("profile", "perfect"),
            ("profile", "stride"),
            ("heuristics", "perfect"),
            ("heuristics", "stride"),
        ):
            add(policy, value_predictor=vp)
    elif figure == "figure10a":
        for vp in ("stride", "fcm"):
            for policy in ("profile-independent", "profile-predictable"):
                add(policy, value_predictor=vp)
    elif figure == "figure10b":
        for policy in ("profile-independent", "profile-predictable", "profile"):
            add(policy, value_predictor="stride")
    elif figure == "figure11":
        for policy in ("profile", "heuristics"):
            for overhead in (0, 8):
                add(policy, value_predictor="stride", init_overhead=overhead)
    elif figure == "figure12":
        for vp, overhead in (("perfect", 0), ("stride", 0), ("stride", 8)):
            for policy in ("profile", "heuristics"):
                add(
                    policy,
                    num_thread_units=4,
                    value_predictor=vp,
                    init_overhead=overhead,
                )
    # figure2 / heuristic_breakdown / profile_input_sensitivity bypass the
    # run memo (pairs-only or direct simulate calls) -> empty grid; the
    # driver runs them in-process.
    seen = set()
    unique: List[Tuple[str, str, Dict[str, Any]]] = []
    for name, policy, overrides in combos:
        fingerprint = (name, policy, tuple(sorted(overrides.items(), key=str)))
        if fingerprint not in seen:
            seen.add(fingerprint)
            unique.append((name, policy, overrides))
    return unique


def _overrides_tag(overrides: Dict[str, Any]) -> str:
    if not overrides:
        return "base"
    return ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))


def figure_points(figure: str, scale: float = 1.0) -> List[Point]:
    """Pickle-safe point specs covering one figure's sweep grid.

    Args:
        figure: Figure driver name (``figure3`` ... ``figure12``).
        scale: Workload size multiplier.

    Returns:
        One :class:`Point` per (workload, policy, configuration) the
        figure consumes; empty for drivers that bypass the run memo.
    """
    if figure not in figures_mod.ALL_FIGURES:
        raise KeyError(
            f"unknown figure {figure!r}; pick from "
            f"{', '.join(figures_mod.ALL_FIGURES)}"
        )
    return [
        Point(
            key=f"{figure}|{name}|{policy}|{_overrides_tag(overrides)}",
            runner="simulate",
            params={
                "name": name,
                "policy": policy,
                "scale": scale,
                "overrides": overrides,
            },
        )
        for name, policy, overrides in _grid(figure, framework.suite(scale))
    ]


def run_figure(
    figure: str,
    scale: float = 1.0,
    engine: Optional[ParallelEngine] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    progress: Optional[Callable[[str, ResilientOutcome, bool], None]] = None,
) -> FigureResult:
    """Reproduce one figure through the parallel engine.

    The figure's grid points run via ``engine`` (parallel, cached,
    checkpointed); successful payloads seed the figure-driver memos, and
    the unchanged driver assembles the :class:`FigureResult`.  Any point
    that failed (or is missing from the grid) is recomputed serially by
    the driver, so the output matches the serial path exactly.

    Args:
        figure: Figure driver name.
        scale: Workload size multiplier.
        engine: Engine to run on (default: serial, uncached).
        checkpoint: Optional resume store for the point sweep.
        progress: Per-point progress callback.

    Returns:
        The figure's :class:`FigureResult`.
    """
    engine = engine or ParallelEngine(jobs=1)
    points = figure_points(figure, scale)
    outcomes = (
        engine.run(points, checkpoint=checkpoint, progress=progress)
        if points
        else {}
    )
    with framework.use_cache(engine.cache):
        for point in points:
            outcome = outcomes.get(point.key)
            if outcome is not None and outcome.ok and isinstance(outcome.value, dict):
                config = EXPERIMENT_CONFIG.with_(**point.params["overrides"])
                figures_mod.seed_run(
                    point.params["name"],
                    point.params["policy"],
                    config,
                    scale,
                    outcome.value,
                )
        return figures_mod.ALL_FIGURES[figure](scale)
