"""Supervised worker pool: retries, timeouts, cancellation, quarantine.

Workers claim jobs from the :class:`~repro.serve.queue.JobQueue` and
execute them like the simulator executes speculative threads — assume
success, recover from anything:

- each job runs through
  :func:`~repro.experiments.framework.run_resilient`, the attempt
  runner sweeps and dist workers share.  It owns the per-attempt
  timeout, the deterministic jittered backoff (keyed by job id, so
  herds desynchronise) and the :func:`repro.errors.classify_failure`
  policy: transient failures retry, fatal ones fail at once, and an
  :class:`~repro.errors.InvariantViolation` poison-quarantines the job
  (a simulator bug re-executes identically);
- each supervisor thread runs its attempts in one long-lived **job
  process** (forked at the thread's first attempt; spawned where
  ``fork`` is missing) that takes them over a duplex pipe, back to
  back, the way a CSMT thread unit persists across the threads it
  runs.  Each attempt runs under its own artifact cache, the
  pipeline's only memo, which the job process drops after the attempt,
  so no decoded trace outlives the attempt that read it;
- an attempt's timeout and a mid-attempt cancellation hard-kill the job
  process (``terminate``), never hang; a job process that dies
  mid-attempt (OOM-kill, crash) shows as EOF on the pipe and counts as
  a transient failure.  Either way the next attempt forks a new job
  process — the supervisor outlives its job processes;
- a job process exits when its daemon dies, and :meth:`WorkerPool.stop`
  reaps every job process.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cache import ArtifactCache
from repro.errors import (
    JobCancelled,
    SimulationTimeout,
    classify_failure,
    rebuild_failure,
)
from repro.experiments import framework
from repro.experiments.engine import Point, execute_point
from repro.experiments.framework import attempt_deadline, run_resilient
from repro.obs.manifest import RunManifest
from repro.serve.jobs import Job
from repro.serve.queue import JobQueue

__all__ = ["WorkerPool"]

#: Seconds an idle job process waits on its pipe between checks that the
#: daemon that forked it is still alive.
_PARENT_CHECK_S = 0.5


def _run_attempt(
    job_id: str, runner: str, params: Any, cache_dir: Optional[str]
) -> Tuple[str, Any, Optional[str]]:
    """Run one attempt; returns the ``(status, payload, error_type)`` reply.

    The attempt runs under its own artifact cache (memory-only without
    ``cache_dir``), so everything it decoded or built dies with that
    cache when this returns.
    """
    cache = ArtifactCache(cache_dir)
    with framework.use_cache(cache):
        try:
            payload = execute_point(Point(job_id, runner, dict(params)), cache)
            return ("ok", payload, None)
        except Exception as exc:  # ship every failure to the supervisor
            return ("error", str(exc), type(exc).__name__)


def _job_main(
    conn: "multiprocessing.connection.Connection",
    daemon_end: "multiprocessing.connection.Connection",
    daemon_pid: int,
) -> None:
    """Job-process body: run attempts from the pipe until it closes.

    Each request is ``(job_id, runner, params, cache_dir)`` and gets one
    ``(status, payload, error_type)`` reply.  The process exits when the
    daemon closes its end of the pipe, and also once ``daemon_pid`` is
    no longer its parent (the daemon died, and a sibling forked later
    still holds a copy of the daemon's end).

    Args:
        conn: The job process's end of its duplex pipe.
        daemon_end: The daemon's end, which a forked job process
            inherits; it is closed at once.
        daemon_pid: Process id of the daemon that forked it.
    """
    daemon_end.close()
    # A forked daemon's SIGTERM/SIGINT handler would start a drain on
    # this process's copy of the queue: the supervisor's terminate()
    # must simply end the process.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        while True:
            if conn.poll(_PARENT_CHECK_S):
                conn.send(_run_attempt(*conn.recv()))
            elif os.getppid() != daemon_pid:
                return
    except (EOFError, OSError):  # the daemon closed its end or is gone
        return
    finally:
        conn.close()


class _JobProcess:
    """One long-lived job process and the supervisor's end of its pipe."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn"
        )
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_job_main,
            args=(child_conn, self.conn, os.getpid()),
            daemon=True,
        )
        try:
            self.process.start()
        finally:
            child_conn.close()

    def kill(self) -> None:
        """Hard-kill and reap the process (idempotent, any thread)."""
        self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - needs SIGKILL
            self.process.kill()
            self.process.join(timeout=1.0)


class _PoolStopped(BaseException):
    """The pool stopped under a claimed job.

    Not an ``Exception``, so the attempt runner neither classifies nor
    retries it: the job is left as a crash leaves it, running in the
    journal, and the next daemon re-queues it.
    """


class WorkerPool:
    """Fixed pool of supervisor threads executing queue jobs.

    Args:
        queue: The job queue to claim from.
        workers: Worker thread count (one job process each).
        cache_dir: Artifact-cache directory shared with the job
            processes (None disables payload memoization).
        timeout: Per-attempt wall-clock limit in seconds (None =
            unbounded; enforced by hard kill).
        retries: Extra attempts after the first, per job, for
            transient failures.
        backoff: Base of the exponential retry backoff in seconds.
        jitter: Jitter fraction of the backoff (deterministically
            seeded by job id; see
            :func:`~repro.experiments.framework.backoff_delay`).
        telemetry_dir: When set, a provenance
            :class:`~repro.obs.manifest.RunManifest` is written per
            finished job.
    """

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        jitter: float = 0.5,
        telemetry_dir: Optional[str] = None,
    ) -> None:
        self.queue = queue
        self.workers = max(1, int(workers))
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.jitter = jitter
        self.telemetry_dir = telemetry_dir
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._job_processes: Dict[int, _JobProcess] = {}

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True, timeout: float = 10.0) -> bool:
        """Stop claiming new jobs and reap every job process.

        With ``wait``, the workers get up to ``timeout`` seconds to
        finish their jobs first.  A job still running after that is
        killed with its job process and left as a crash leaves it.

        Returns:
            True when every worker exited within ``timeout``.
        """
        self._stop.set()
        ok = True
        if wait:
            deadline = time.monotonic() + timeout
            for thread in self._threads:
                remaining = max(0.0, deadline - time.monotonic())
                thread.join(remaining)
                ok = ok and not thread.is_alive()
        with self._lock:
            running = list(self._job_processes.values())
        for job_process in running:  # their workers close the pipes
            job_process.kill()
        return ok

    def job_processes(self) -> List["multiprocessing.process.BaseProcess"]:
        """Return the workers' current job processes.

        Returns:
            The ``multiprocessing`` processes, one per worker that has
            a job process now.
        """
        with self._lock:
            return [jp.process for jp in self._job_processes.values()]

    def join_idle(self, timeout: float = 30.0) -> bool:
        """Wait until no job is queued or running (graceful drain).

        Returns:
            True when the queue emptied within ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.queue.pending() == 0:
                return True
            time.sleep(0.02)
        return self.queue.pending() == 0

    # ------------------------------------------------------------------
    # Worker body.
    # ------------------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        try:
            while not self._stop.is_set():
                job = self.queue.claim(timeout=0.1)
                if job is None:
                    if self.queue.draining and self.queue.depth() == 0:
                        time.sleep(0.02)
                    continue
                try:
                    self._run_job(job, index)
                except _PoolStopped:
                    return
                except Exception as exc:  # supervisor never dies
                    self.queue.fail(
                        job,
                        error=f"supervisor error: {exc}",
                        error_type=type(exc).__name__,
                    )
        finally:
            self._retire(index)

    def _run_job(self, job: Job, index: int) -> None:
        """Execute one claimed job to a terminal state."""
        retry = False

        def attempt() -> Any:
            nonlocal retry
            if self._stop.is_set():
                raise _PoolStopped
            if retry:
                self.queue.note_attempt(job)
            retry = True
            return self._attempt(job, index)

        outcome = run_resilient(
            attempt,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            jitter=self.jitter,
            jitter_key=job.id,
        )
        if outcome.ok:
            self.queue.finish(job, outcome.value, seconds=outcome.seconds)
        else:
            error, error_type = str(outcome.error), str(outcome.error_type)
            category = classify_failure(rebuild_failure(error_type, error))
            if category == "cancelled":
                self.queue.mark_cancelled(job, seconds=outcome.seconds)
            else:
                self.queue.fail(
                    job, error=error, error_type=error_type,
                    quarantine=category == "poison",
                    seconds=outcome.seconds,
                )
        self._write_manifest(job)

    # ------------------------------------------------------------------
    # Job processes.
    # ------------------------------------------------------------------

    def _job_process(self, index: int) -> _JobProcess:
        """Return worker ``index``'s job process, forking it if needed."""
        with self._lock:
            job_process = self._job_processes.get(index)
            if job_process is not None and job_process.process.is_alive():
                return job_process
        self._retire(index)  # died between attempts
        with self._lock:
            if self._stop.is_set():
                raise _PoolStopped
            job_process = _JobProcess()
            self._job_processes[index] = job_process
            self.queue.metrics.worker_starts.inc()
        return job_process

    def _retire(self, index: int) -> Optional[int]:
        """Kill worker ``index``'s job process and close its pipe.

        Returns:
            The job process's exit code (None when the worker had none).
        """
        with self._lock:
            job_process = self._job_processes.pop(index, None)
        if job_process is None:
            return None
        job_process.kill()
        job_process.conn.close()
        return job_process.process.exitcode

    def _died(self, index: int) -> BaseException:
        """Retire a job process that died mid-attempt; returns what to raise."""
        exitcode = self._retire(index)
        if self._stop.is_set():
            return _PoolStopped()  # stop() killed it
        return RuntimeError(
            f"job process died without a result (exitcode {exitcode})"
        )

    # ------------------------------------------------------------------
    # One attempt.
    # ------------------------------------------------------------------

    def _attempt(self, job: Job, index: int) -> Any:
        """One attempt in the job process: hard kill on timeout and cancel."""
        if job.cancel_requested:
            raise JobCancelled("cancelled before the attempt started")
        job_process = self._job_process(index)
        conn = job_process.conn
        try:
            conn.send((job.id, job.runner, job.params, self.cache_dir))
        except OSError:
            raise self._died(index) from None
        deadline = attempt_deadline()
        while True:
            if job.cancel_requested:
                self._retire(index)
                raise JobCancelled("cancelled mid-attempt")
            if deadline is not None and time.monotonic() > deadline:
                self._retire(index)
                raise SimulationTimeout(
                    "job attempt exceeded its wall-clock limit",
                    seconds=self.timeout,
                )
            try:
                if conn.poll(0.05):
                    status, payload, error_type = conn.recv()
                    break
            except (EOFError, OSError):
                raise self._died(index) from None
            if not job_process.process.is_alive() and not conn.poll(0.2):
                raise self._died(index)
        if status == "ok":
            return payload
        raise rebuild_failure(str(error_type), str(payload))

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------

    def _write_manifest(self, job: Job) -> None:
        """Write the job's provenance manifest (best effort)."""
        if self.telemetry_dir is None:
            return
        try:
            RunManifest(
                name=f"job-{job.id}",
                config={"runner": job.runner, "params": job.params},
                seconds=job.seconds,
                attempts=max(job.attempts, 1),
                ok=job.state.value == "done",
                extra={
                    "state": job.state.value,
                    "priority": job.priority,
                    "cached": job.cached,
                    "error_type": job.error_type,
                },
            ).write(self.telemetry_dir)
        except OSError:  # pragma: no cover - disk full etc.
            pass
