"""Executor backends: the pluggable engine-execution protocol.

The parallel engine used to be welded to one ``ProcessPoolExecutor``;
this module turns "how do the points actually run" into a protocol.  A
:class:`Backend` receives the sweep's points, an :class:`ExecutionPlan`
(timeouts, retry budget, cache location, worker count), and an *emit*
callback; it must call ``emit(key, outcome_dict, cache_delta,
worker_id)`` exactly once per point, in any order, and may not raise
per-point failures — those travel inside the outcome dict, exactly as
:func:`~repro.experiments.framework.run_resilient` reports them.

Built-in backends:

- ``serial`` — in-process, submission order; the ``jobs=1`` path and
  the reference behaviour every other backend is gated against.
- ``process`` — a local ``ProcessPoolExecutor`` fan-out.
- ``remote`` — a socket-connected worker fleet scheduled by the
  work-stealing :class:`~repro.dist.scheduler.WorkStealingScheduler`
  (see :mod:`repro.dist.coordinator`; registered lazily to keep import
  cost off the serial path).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.cache import ArtifactCache
from repro.experiments import engine, framework
from repro.experiments.engine import Point
from repro.experiments.framework import run_resilient

__all__ = [
    "CACHE_COUNTERS",
    "EmitFn",
    "ExecutionPlan",
    "Backend",
    "SerialBackend",
    "ProcessBackend",
    "backend_names",
    "create_backend",
]

#: Cache-stats counters aggregated per point (the engine's delta keys).
CACHE_COUNTERS: Tuple[str, ...] = ("memory_hits", "disk_hits", "misses", "puts")

#: ``emit(key, outcome_dict, cache_delta, worker_id)`` — the single
#: result channel every backend reports through.
EmitFn = Callable[[str, Dict[str, Any], Dict[str, int], str], None]


@dataclass
class ExecutionPlan:
    """Everything a backend needs to execute a sweep's points.

    Attributes:
        timeout: Per-point wall-clock limit in seconds (None unbounded).
        retries: Retry budget per point.
        backoff: Base of the exponential retry backoff in seconds.
        workers: Requested degree of parallelism.
        cache_dir: Shared on-disk artifact-cache directory (None
            disables disk caching).
        cache: The caller's live cache instance over ``cache_dir`` (the
            serial backend reuses it, so its memory front and stats
            are the caller's; other backends open their own handles).
        telemetry_dir: Telemetry directory of *earlier* sweeps — the
            source of work-stealing cost priors (see
            :meth:`~repro.dist.scheduler.CostModel.from_manifests`).
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    workers: int = 2
    cache_dir: Optional[str] = None
    cache: Optional[ArtifactCache] = None
    telemetry_dir: Optional[str] = None


class Backend(ABC):
    """One way of executing sweep points; see the module docstring.

    Contract: :meth:`execute` calls ``emit`` exactly once per to-do
    point and returns only when every point was emitted; ``emit`` calls
    must be serialised (never concurrent), because the engine updates
    its result and progress state inside the callback.
    """

    #: Registry name of the backend (e.g. ``"remote"``).
    name: str = "abstract"

    @abstractmethod
    def execute(
        self,
        points: Sequence[Point],
        plan: ExecutionPlan,
        emit: EmitFn,
    ) -> None:
        """Execute every point, reporting each through ``emit``.

        Args:
            points: The sweep's points; keys are unique.
            plan: Execution parameters (timeouts, cache, workers).
            emit: Per-point result callback (see :data:`EmitFn`).
        """

    def fleet_summary(self) -> Dict[str, Any]:
        """Return fleet-level counters of the last run (empty if none)."""
        return {}


def _stats_delta(
    before: Optional[Dict[str, Any]], cache: Optional[ArtifactCache]
) -> Dict[str, int]:
    """Return the cache-counter delta since ``before`` (empty if uncached)."""
    if cache is None or before is None:
        return {}
    after = cache.stats.to_dict()
    return {k: int(after[k]) - int(before[k]) for k in CACHE_COUNTERS}


class SerialBackend(Backend):
    """In-process execution in submission order (the reference backend).

    Installs the plan's cache as the active framework cache (so derived
    trace/pair/baseline artifacts memoize in the caller's cache, or in
    the memory-only default without one) and runs each point through
    :func:`~repro.experiments.framework.run_resilient`.  The point body
    is looked up as ``engine.execute_point`` at call time, so a wrapper
    installed on the engine module sees every point.
    """

    name = "serial"

    def execute(
        self,
        points: Sequence[Point],
        plan: ExecutionPlan,
        emit: EmitFn,
    ) -> None:
        """Run every point in order in the calling process via ``emit``."""
        cache = plan.cache
        if cache is None and plan.cache_dir:
            cache = ArtifactCache(plan.cache_dir)
        with framework.use_cache(cache):
            for point in points:
                before = cache.stats.to_dict() if cache else None
                outcome = run_resilient(
                    lambda point=point: engine.execute_point(point, cache),
                    timeout=plan.timeout,
                    retries=plan.retries,
                    backoff=plan.backoff,
                    jitter_key=point.key,
                )
                emit(
                    point.key,
                    outcome.to_dict(),
                    _stats_delta(before, cache),
                    "serial-0",
                )


# ----------------------------------------------------------------------
# Worker-process plumbing of the process backend.
# Top-level functions: they cross the process boundary by reference.
# ----------------------------------------------------------------------

_worker_cache: Optional[ArtifactCache] = None


def _worker_init(cache_dir: Optional[str]) -> None:
    """Pool initializer: attach the shared artifact cache in the worker."""
    global _worker_cache
    _worker_cache = ArtifactCache(cache_dir) if cache_dir else None
    framework.set_cache(_worker_cache)


def _worker_run(
    point: Point,
    timeout: Optional[float],
    retries: int,
    backoff: float,
) -> Tuple[str, Dict[str, Any], Dict[str, int], str]:
    """Execute one point resiliently in a pool worker.

    Args:
        point: The point spec to run.
        timeout: Per-attempt wall-clock limit in seconds.
        retries: Retry budget.
        backoff: Exponential-backoff base in seconds.

    Returns:
        ``(key, outcome_dict, cache_delta, worker_id)`` so the parent
        can aggregate hit rates and attribute the point to a worker.
    """
    cache = _worker_cache
    before = cache.stats.to_dict() if cache else None
    outcome = run_resilient(
        lambda: engine.execute_point(point, cache),
        timeout=timeout,
        retries=retries,
        backoff=backoff,
    )
    return (
        point.key,
        outcome.to_dict(),
        _stats_delta(before, cache),
        f"pid-{os.getpid()}",
    )


class ProcessBackend(Backend):
    """A local ``ProcessPoolExecutor`` fan-out.

    Points are all submitted up front; results are emitted in
    completion order.
    """

    name = "process"

    def execute(
        self,
        points: Sequence[Point],
        plan: ExecutionPlan,
        emit: EmitFn,
    ) -> None:
        """Fan the points across a local process pool via ``emit``."""
        if not points:
            return
        # Imported here: the pool machinery stays off the serial path.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(
            max_workers=min(max(plan.workers, 1), len(points)),
            initializer=_worker_init,
            initargs=(plan.cache_dir,),
        ) as pool:
            futures = {
                pool.submit(
                    _worker_run, point, plan.timeout, plan.retries,
                    plan.backoff,
                ): point
                for point in points
            }
            for future in as_completed(futures):
                key, outcome_dict, delta, worker_id = future.result()
                emit(key, outcome_dict, delta, worker_id)


#: Backend registry: name -> zero-argument factory.  ``remote`` is
#: resolved lazily inside :func:`create_backend` so importing this
#: module never pays the socket machinery's import cost.
_FACTORIES: Dict[str, Callable[[], Backend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def backend_names() -> Tuple[str, ...]:
    """Return every registered backend name (including ``remote``)."""
    return tuple(_FACTORIES) + ("remote",)


def create_backend(name: str, **options: Any) -> Backend:
    """Instantiate a backend by registry name.

    Args:
        name: One of :func:`backend_names`.
        **options: Backend-specific constructor options (only
            ``remote`` takes any — e.g. ``workers``, ``heartbeat``).

    Returns:
        The backend instance.

    Raises:
        KeyError: For an unknown backend name.
    """
    if name == "remote":
        from repro.dist.coordinator import RemoteBackend

        return RemoteBackend(**options)
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(backend_names())}"
        ) from None
    if options:
        raise TypeError(f"backend {name!r} takes no options")
    return factory()
