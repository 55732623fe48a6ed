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
- each supervisor thread runs its attempts in one long-lived
  :class:`~repro.dist.backend.JobProcess`, as a CSMT thread unit
  persists across the threads it runs, each under an artifact cache of
  its own (the pipeline's only memo), so no decoded trace outlives the
  attempt that read it.  A timeout or a cancel hard-kills the job
  process, its death mid-attempt (OOM-kill, crash) is a transient
  failure, and the next attempt forks a new one.  It exits when the
  daemon dies, and :meth:`WorkerPool.stop` reaps every job process.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, List, Optional

from repro.dist.backend import JobProcess, JobProcessClosed
from repro.errors import JobCancelled, classify_failure, rebuild_failure
from repro.experiments.engine import Point
from repro.experiments.framework import run_resilient
from repro.obs.manifest import RunManifest
from repro.serve.jobs import Job
from repro.serve.queue import JobQueue

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

__all__ = ["WorkerPool"]


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
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.jitter = jitter
        self.telemetry_dir = telemetry_dir
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._job_processes = [
            JobProcess(
                cache_dir, fresh_cache=True,
                on_start=queue.metrics.worker_starts.inc,
            )
            for _ in range(self.workers)
        ]

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
        for job_process in self._job_processes:  # workers close the pipes
            job_process.close()
        return ok

    def job_processes(self) -> List["BaseProcess"]:
        """Return the workers' current job processes."""
        processes = [jp.process for jp in self._job_processes]
        return [process for process in processes if process is not None]

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
                except JobProcessClosed:  # left as a crash leaves it
                    return
                except Exception as exc:  # supervisor never dies
                    self.queue.fail(
                        job,
                        error=f"supervisor error: {exc}",
                        error_type=type(exc).__name__,
                    )
        finally:
            self._job_processes[index].kill()

    def _run_job(self, job: Job, index: int) -> None:
        """Execute one claimed job to a terminal state."""
        retry = False

        def attempt() -> Any:
            nonlocal retry
            if self._stop.is_set():
                raise JobProcessClosed()
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

    def _attempt(self, job: Job, index: int) -> Any:
        """One attempt in the job process: hard kill on timeout and cancel."""
        if job.cancel_requested:
            raise JobCancelled("cancelled before the attempt started")
        return self._job_processes[index].run(
            Point(job.id, job.runner, dict(job.params)),
            cancelled=lambda: job.cancel_requested,
        )

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
