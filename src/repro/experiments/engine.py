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
is configured, so traces/pairs/priming sequences/baselines are derived
once per sweep and whole point results are memoized across runs.  The
cache is also how a killed sweep resumes: re-run with the same cache
directory, every completed point comes back from its ``point``
artifact, whose key covers the point's params and the generator source.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.cache import ArtifactCache
from repro.errors import InvariantViolation, SimulationTimeout
from repro.experiments import figures as figures_mod
from repro.experiments import framework
from repro.experiments.framework import FigureResult, ResilientOutcome

__all__ = [
    "Point",
    "ParallelEngine",
    "figure_points",
    "run_points",
    "run_figure",
    "execute_point",
    "point_key_fields",
    "POINT_RUNNERS",
    "CACHED_RUNNERS",
]


@dataclass(frozen=True)
class Point:
    """One pickle-safe unit of sweep work.

    Args:
        key: Stable identifier (result-ordering and progress key).
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
# JSON-serialisable payload so it can be stored in the artifact cache.
# ----------------------------------------------------------------------


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
    "simulate": framework.simulate_point,
    "campaign": _runner_campaign,
    "sleep": _runner_sleep,
}

#: Runner names whose payloads are memoized in the artifact cache under
#: the ``point`` kind (sweeps and serve jobs share these artifacts).
CACHED_RUNNERS = ("simulate", "campaign")


def point_key_fields(runner: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Return the ``point`` artifact-cache key fields of a runner call.

    Every param keys the artifact except a campaign's ``crash_key``: it
    only makes the first attempt crash, and the retry returns the payload
    the point has without it.  Sweeps (:func:`execute_point`) and the
    serve daemon's cache probe both key through here, so they share
    artifacts.

    Args:
        runner: Name of a runner in :data:`CACHED_RUNNERS`.
        params: The runner's keyword arguments.

    Returns:
        The key fields: ``runner`` plus the params that shape the payload.
    """
    fields = {k: v for k, v in params.items() if k != "crash_key"}
    return {"runner": runner, **fields}


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
        "point",
        lambda: runner(**point.params),
        **point_key_fields(point.runner, point.params),
    )


class ParallelEngine:
    """Fan experiment points across an executor backend.

    Args:
        jobs: Worker count; ``None`` means ``os.cpu_count()``.  ``jobs=1``
            selects the ``serial`` backend: every point runs in the
            calling process, in submission order.
        cache_dir: Directory of the shared on-disk artifact cache (None
            disables disk caching; the memory-only default still applies).
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
        #: fleet summary of the last run (scheduler/cache counters).
        self.fleet: Dict[str, Any] = {}
        #: point key -> cache-counter delta of that point's execution
        #: (empty without a cache directory).
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
        progress: Optional[Callable[[str, ResilientOutcome, bool], None]] = None,
    ) -> Dict[str, ResilientOutcome]:
        """Execute every point; results keyed and ordered as submitted.

        Args:
            points: Point specs; keys must be unique.
            progress: ``progress(key, outcome, resumed)`` per point, as
                it lands; ``resumed`` is true when the artifact cache
                served the point's payload whole (hits and no miss).

        Returns:
            Mapping of point key to outcome, in the order of ``points``
            regardless of completion order.
        """
        keys = [p.key for p in points]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate point keys in sweep")
        started = time.perf_counter()
        results = self._run_dispatch(points, progress)
        if self.telemetry_dir is not None:
            self._write_telemetry(
                points, results, time.perf_counter() - started
            )
        return results

    def _run_dispatch(self, points, progress):
        """Execute the sweep through the executor backend.

        The backend's serialized ``emit`` calls land results, cache
        deltas and worker attribution, and report progress right after
        each point.
        """
        from repro.dist.backend import ExecutionPlan, create_backend

        backend = (
            create_backend(self.backend_name)
            if self.backend is None or isinstance(self.backend, str)
            else self.backend
        )
        results: Dict[str, ResilientOutcome] = {}
        plan = ExecutionPlan(
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            workers=min(self.workers, len(points)),
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
            if progress is not None:
                hits = delta.get("memory_hits", 0) + delta.get("disk_hits", 0)
                progress(key, outcome, hits > 0 and not delta.get("misses"))

        backend.execute(points, plan, emit)
        self.fleet = backend.fleet_summary()
        missing = [p.key for p in points if p.key not in results]
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
# Figure sweeps: expand a figure's declared runs (``figures.RUNS``) into
# points, run them through an engine, record the payloads for the figure
# driver, and let the driver assemble its table from them.
# ----------------------------------------------------------------------


def _overrides_tag(overrides: Dict[str, Any]) -> str:
    if not overrides:
        return "base"
    return ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))


def run_points(figure: str, label: str, scale: float = 1.0) -> List[Point]:
    """Pickle-safe points of run ``label`` of ``figure``, in suite order.

    Returns:
        One ``simulate`` :class:`Point` per workload.
    """
    points = []
    for name in framework.suite(scale):
        policy, overrides = figures_mod.run_spec(figure, label, name)
        points.append(Point(
            key=f"{figure}|{name}|{policy}|{_overrides_tag(overrides)}",
            runner="simulate",
            params={
                "name": name,
                "policy": policy,
                "scale": scale,
                "overrides": overrides,
            },
        ))
    return points


def figure_points(figure: str, scale: float = 1.0) -> List[Point]:
    """Pickle-safe point specs covering one figure's declared runs.

    Args:
        figure: Figure driver name (``figure3`` ... ``figure12``).
        scale: Workload size multiplier.

    Returns:
        The :func:`run_points` of every run in ``figures.RUNS[figure]``,
        run by run; empty for drivers that declare no runs
        (``figure2`` and the extensions simulate in-process).
    """
    if figure not in figures_mod.ALL_FIGURES:
        raise KeyError(
            f"unknown figure {figure!r}; pick from "
            f"{', '.join(figures_mod.ALL_FIGURES)}"
        )
    return [
        point
        for label in figures_mod.RUNS.get(figure, ())
        for point in run_points(figure, label, scale)
    ]


def run_figure(
    figure: str,
    scale: float = 1.0,
    engine: Optional[ParallelEngine] = None,
    progress: Optional[Callable[[str, ResilientOutcome, bool], None]] = None,
) -> FigureResult:
    """Reproduce one figure through the parallel engine.

    The figure's points run via ``engine`` (parallel and cached: a re-run
    on the same cache directory resumes every completed point);
    successful payloads are recorded with ``figures.seed_run`` in the
    engine's cache and the driver assembles the :class:`FigureResult`
    from them.  A point that failed is simulated again by the driver, so
    the output matches the serial path exactly.

    Args:
        figure: Figure driver name.
        scale: Workload size multiplier.
        engine: Engine to run on (default: serial, uncached).
        progress: Per-point progress callback.

    Returns:
        The figure's :class:`FigureResult`.
    """
    engine = engine or ParallelEngine(jobs=1)
    points = figure_points(figure, scale)
    outcomes = engine.run(points, progress=progress) if points else {}
    with framework.use_cache(engine.cache):
        for point in points:
            outcome = outcomes[point.key]
            if outcome.ok:
                figures_mod.seed_run(**point.params, payload=outcome.value)
        return figures_mod.ALL_FIGURES[figure](scale)
