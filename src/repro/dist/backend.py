"""Executor backends and the job process they share with the serve pool.

This module turns "how do the points actually run" into a protocol.  A
:class:`Backend` receives the sweep's points, an :class:`ExecutionPlan`
(timeouts, retry budget, cache location, worker count), and an *emit*
callback; it must call ``emit(key, outcome_dict, cache_delta,
worker_id)`` exactly once per point, in any order, and may not raise
per-point failures — those travel inside the outcome dict, exactly as
:func:`~repro.experiments.framework.run_resilient` reports them.

Built-in backends:

- ``serial`` — in-process, submission order; the ``jobs=1`` path and
  the reference behaviour every other backend is gated against.
- ``process`` — one worker thread and one local :class:`JobProcess`
  per worker (the serve pool's attempts run in one too).
- ``remote`` — a socket-connected worker fleet scheduled by the
  work-stealing :class:`~repro.dist.scheduler.WorkStealingScheduler`
  (see :mod:`repro.dist.coordinator`; registered lazily to keep import
  cost off the serial path).
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from repro.cache import ArtifactCache
from repro.errors import JobCancelled, SimulationTimeout, rebuild_failure
from repro.experiments import engine, framework
from repro.experiments.engine import Point
from repro.experiments.framework import attempt_deadline, run_resilient

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

__all__ = [
    "CACHE_COUNTERS",
    "EmitFn",
    "ExecutionPlan",
    "Backend",
    "SerialBackend",
    "ProcessBackend",
    "JobProcess",
    "JobProcessClosed",
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
# Job processes: the one place a local child is forked.
# ----------------------------------------------------------------------

class JobProcessClosed(BaseException):
    """Raised by a closed :class:`JobProcess`.

    Not an ``Exception``: :func:`run_resilient` never retries it.
    """


def _run_attempt(
    point: Point, cache: Optional[ArtifactCache]
) -> Tuple[str, Any, Optional[str], Dict[str, int]]:
    """Return ``(status, payload, error_type, cache_delta)`` of one attempt."""
    before = cache.stats.to_dict() if cache else None
    reply: Tuple[str, Any, Optional[str]]
    with framework.use_cache(cache):
        try:
            reply = ("ok", engine.execute_point(point, cache), None)
        except Exception as exc:  # ship every failure to the parent
            reply = ("error", str(exc), type(exc).__name__)
    return reply + (_stats_delta(before, cache),)


def _job_main(
    conn: "Connection",
    parent_end: "Connection",
    parent_pid: int,
    cache_dir: Optional[str],
    fresh_cache: bool,
) -> None:
    """Job-process body: answer each point on ``conn`` in turn.

    ``parent_end`` (inherited by a fork) is closed at once; ``cache_dir``
    and ``fresh_cache`` are as in :class:`JobProcess`.  The process exits
    when the pipe closes, or once ``parent_pid`` is no longer its parent
    (a sibling forked later may hold the parent's end).
    """
    parent_end.close()
    # A forked serve daemon's SIGTERM/SIGINT handler would start a drain
    # on this process's copy of the queue: a kill must end the process.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    cache = None if fresh_cache or not cache_dir else ArtifactCache(cache_dir)
    try:
        while True:
            if conn.poll(0.5):  # else check that the parent lives
                point = conn.recv()
                conn.send(_run_attempt(
                    point, ArtifactCache(cache_dir) if fresh_cache else cache
                ))
            elif os.getppid() != parent_pid:
                return
    except (EOFError, OSError):  # the parent closed its end or is gone
        return
    finally:
        conn.close()


def _reap(process: "BaseProcess") -> Optional[int]:
    """Hard-kill ``process`` (SIGTERM, then SIGKILL); returns its exit code."""
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - needs SIGKILL
        process.kill()
        process.join(timeout=1.0)
    return process.exitcode


class JobProcess:
    """One long-lived local child that runs attempts of points in turn.

    It forks on the first :meth:`run` (and calls ``on_start``), and a
    kill, a death or a deadline makes the next attempt fork anew.  With
    ``fresh_cache`` each attempt gets an artifact cache over
    ``cache_dir`` of its own (the serve pool's isolation); otherwise the
    process keeps one for its life (a sweep worker's memo across points).
    :meth:`close` may come from any thread; the rest belongs to one.
    """

    #: Shared by every job process, so forks are serialised: a child
    #: forked while a sibling's fork is half done would hold its pipes.
    _lock = threading.Lock()

    def __init__(
        self,
        cache_dir: Optional[str],
        fresh_cache: bool,
        on_start: Optional[Callable[[], None]] = None,
    ) -> None:
        import multiprocessing  # here: a serial sweep never loads it

        self._ctx = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn"
        )
        self.cache_dir = cache_dir
        self.fresh_cache = fresh_cache
        self.on_start = on_start
        #: The live child (None before the first attempt and after a kill).
        self.process: Optional["BaseProcess"] = None
        self._conn: Optional["Connection"] = None
        self._closed = False

    def run(
        self,
        point: Point,
        delta: Optional[Dict[str, int]] = None,
        cancelled: Optional[Callable[[], bool]] = None,
    ) -> Any:
        """Run one attempt of ``point`` and return its payload.

        The attempt's cache-counter delta is added into ``delta``.  Once
        ``cancelled()`` or the attempt's deadline fires the process is
        killed (:class:`JobCancelled`, :class:`SimulationTimeout`); a
        death raises ``RuntimeError``, and after :meth:`close`,
        :class:`JobProcessClosed`.
        """
        process, conn = self._start()
        deadline = attempt_deadline()
        try:
            conn.send(point)
            while not conn.poll(0.05):
                if cancelled is not None and cancelled():
                    self.kill()
                    raise JobCancelled("cancelled mid-attempt")
                if deadline is not None and time.monotonic() > deadline:
                    self.kill()
                    raise SimulationTimeout("wall-clock limit exceeded")
                if not process.is_alive() and not conn.poll(0.2):
                    raise EOFError  # it died without a reply
            status, payload, error_type, attempt_delta = conn.recv()
        except (EOFError, OSError):
            exitcode = self.kill()
            if self._closed:
                raise JobProcessClosed() from None
            raise RuntimeError(
                f"job process died without a result (exitcode {exitcode})"
            ) from None
        if delta is not None:
            for key, value in attempt_delta.items():
                delta[key] = delta.get(key, 0) + value
        if status == "ok":
            return payload
        raise rebuild_failure(str(error_type), str(payload))

    def kill(self) -> Optional[int]:
        """Kill and reap the process, close its pipe; returns its exit code."""
        with self._lock:
            process, conn = self.process, self._conn
            self.process = self._conn = None
        if conn is not None:
            conn.close()
        return _reap(process) if process is not None else None

    def close(self) -> None:
        """Kill the process for good (the pipe is left to :meth:`kill`)."""
        with self._lock:
            self._closed = True
            process = self.process
        if process is not None:
            _reap(process)

    def _start(self) -> Tuple["BaseProcess", "Connection"]:
        """Return the live process and its pipe, forking one if needed."""
        if self.process is not None and not self.process.is_alive():
            self.kill()  # it died between attempts
        with self._lock:
            if self._closed:
                raise JobProcessClosed()
            if self.process is not None and self._conn is not None:
                return self.process, self._conn
            conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_job_main,
                args=(child_conn, conn, os.getpid(), self.cache_dir,
                      self.fresh_cache),
                daemon=True,
            )
            try:
                process.start()
            finally:
                child_conn.close()
            self.process, self._conn = process, conn
        if self.on_start is not None:
            self.on_start()
        return process, conn


class ProcessBackend(Backend):
    """One worker thread and one :class:`JobProcess` per worker.

    Each thread runs the next point through :func:`run_resilient` in its
    job process.  Results are emitted from the calling thread in
    completion order; every job process is killed on the way out.
    """

    name = "process"

    def execute(
        self,
        points: Sequence[Point],
        plan: ExecutionPlan,
        emit: EmitFn,
    ) -> None:
        """Run the points in local job processes, reporting via ``emit``."""
        jobs = [
            JobProcess(plan.cache_dir, fresh_cache=False)
            for _ in range(min(max(plan.workers, 1), len(points)))
        ]
        pending = iter(points)
        lock = threading.Lock()
        done: "queue.Queue[Any]" = queue.Queue()

        def work(index: int, job: JobProcess) -> None:
            try:
                while True:
                    with lock:
                        point = next(pending, None)
                    if point is None:
                        return
                    delta: Dict[str, int] = {}
                    outcome = run_resilient(
                        lambda point=point: job.run(point, delta),
                        timeout=plan.timeout,
                        retries=plan.retries,
                        backoff=plan.backoff,
                        jitter_key=point.key,
                    )
                    done.put((point.key, outcome.to_dict(), delta,
                              f"process-{index}"))
            except JobProcessClosed:
                return
            except BaseException as exc:  # re-raised in the caller
                done.put(exc)
            finally:
                job.kill()

        threads = [
            threading.Thread(target=work, args=pair, daemon=True)
            for pair in enumerate(jobs)
        ]
        try:
            for thread in threads:
                thread.start()
            for _ in points:
                item = done.get()
                if isinstance(item, BaseException):
                    raise item
                emit(*item)
        finally:
            for job in jobs:
                job.close()
            for thread in threads:
                thread.join()


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
