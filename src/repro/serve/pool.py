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
- each attempt runs in a **child process** (forked; spawned where
  ``fork`` is missing), so the attempt's timeout and a mid-attempt
  cancellation are hard kills (``terminate``), never hangs;
- a worker whose child dies mid-attempt (OOM-kill, crash) sees EOF on
  the result pipe and treats it as transient — the supervisor outlives
  its workers.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from typing import Any, List, Optional

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


def _child_main(
    conn: "multiprocessing.connection.Connection",
    job_id: str,
    runner: str,
    params: Any,
    cache_dir: Optional[str],
) -> None:
    """Child-process attempt body: run the job, ship the result back."""
    try:
        cache = ArtifactCache(cache_dir) if cache_dir else None
        framework.set_cache(cache)
        payload = execute_point(Point(job_id, runner, dict(params)), cache)
        conn.send(("ok", payload, None))
    except BaseException as exc:  # ship *everything* to the supervisor
        conn.send(("error", str(exc), type(exc).__name__))
    finally:
        conn.close()


class WorkerPool:
    """Fixed pool of supervisor threads executing queue jobs.

    Args:
        queue: The job queue to claim from.
        workers: Worker thread count.
        cache_dir: Artifact-cache directory shared with child processes
            (None disables payload memoization).
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
                name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True, timeout: float = 10.0) -> bool:
        """Stop claiming new jobs; optionally join the workers.

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
        return ok

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

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.claim(timeout=0.1)
            if job is None:
                if self.queue.draining and self.queue.depth() == 0:
                    time.sleep(0.02)
                continue
            try:
                self._run_job(job)
            except Exception as exc:  # supervisor never dies
                self.queue.fail(
                    job,
                    error=f"supervisor error: {exc}",
                    error_type=type(exc).__name__,
                )

    def _run_job(self, job: Job) -> None:
        """Execute one claimed job to a terminal state."""
        retry = False

        def attempt() -> Any:
            nonlocal retry
            if retry:
                self.queue.note_attempt(job)
            retry = True
            return self._attempt(job)

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
    # One attempt.
    # ------------------------------------------------------------------

    def _attempt(self, job: Job) -> Any:
        """Child-process attempt: hard kill on timeout and on cancel."""
        if job.cancel_requested:
            raise JobCancelled("cancelled before the attempt started")
        ctx = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn"
        )
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main,
            args=(child_conn, job.id, job.runner, job.params, self.cache_dir),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        deadline = attempt_deadline()
        try:
            while True:
                if job.cancel_requested:
                    self._kill(proc)
                    raise JobCancelled("cancelled mid-attempt")
                if deadline is not None and time.monotonic() > deadline:
                    self._kill(proc)
                    raise SimulationTimeout(
                        "job attempt exceeded its wall-clock limit",
                        seconds=self.timeout,
                    )
                if parent_conn.poll(0.05):
                    break
                if not proc.is_alive() and not parent_conn.poll(0.2):
                    raise RuntimeError(
                        "worker child died without a result "
                        f"(exitcode {proc.exitcode})"
                    )
            try:
                status, payload, error_type = parent_conn.recv()
            except (EOFError, OSError):
                raise RuntimeError(
                    "worker child died without a result "
                    f"(exitcode {proc.exitcode})"
                ) from None
            if status == "ok":
                return payload
            raise rebuild_failure(str(error_type), str(payload))
        finally:
            parent_conn.close()
            if proc.is_alive():
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - stubborn child
                self._kill(proc)
            proc.join(timeout=1.0)

    @staticmethod
    def _kill(proc: "multiprocessing.process.BaseProcess") -> None:
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - needs SIGKILL
            kill = getattr(proc, "kill", None)
            if kill is not None:
                kill()
            proc.join(timeout=1.0)

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
