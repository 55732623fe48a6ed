"""Journaled priority job queue with admission control and dedup.

The queue is the daemon's committed state.  Every transition is
appended to the :class:`~repro.serve.journal.JobJournal` *before* it
becomes visible, so the in-memory table is always reconstructible; on
startup :meth:`JobQueue.recover` replays the journal, re-queues every
job that was queued or running when the process died (re-running a
half-finished job is recovery — its artifact is content-addressed, so
the committed result stream stays exactly-once), and compacts the
journal so "one finish per job per stream" is an invariant the tests
and the smoke gate can assert directly.

Admission control implements graceful degradation:

- the queue is **bounded** (``max_queued``): a full queue rejects with
  :class:`AdmissionError` (the HTTP layer's 429);
- under **pressure** (depth beyond ``shed_ratio`` of the bound), new
  low-priority work is shed at the door;
- a **high-priority** submission hitting a full queue sheds the
  youngest queued low-priority job instead of being rejected;
- a **draining** queue (SIGTERM) rejects everything (the 503) while
  running jobs finish.

Identical submissions coalesce: the job id is the content digest of
``(runner, params)``, so a duplicate submit returns the existing job —
already-done jobs answer instantly, and an artifact-cache probe lets a
brand-new daemon answer a previously-computed config without running
anything.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.experiments.engine import POINT_RUNNERS
from repro.serve.jobs import PRIORITIES, Job, JobState, check_params, job_digest
from repro.serve.journal import JobJournal
from repro.serve.metrics import ServeMetrics

__all__ = ["AdmissionError", "JobQueue", "RecoveryReport"]

#: Sentinel returned by cache probes on a miss.
_MISS = object()


class AdmissionError(RuntimeError):
    """A submission was refused by admission control.

    Attributes:
        reason: ``"full"``, ``"shedding"`` or ``"draining"``.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass
class RecoveryReport:
    """What :meth:`JobQueue.recover` rebuilt from the journal.

    Attributes:
        jobs: Total jobs in the recovered table.
        requeued: Jobs that were queued/running at the crash and were
            put back on the queue.
        finished: Jobs already terminal in the journal.
        duplicate_finishes: Job ids with more than one finish record in
            a single journal stream — always 0 unless exactly-once was
            violated (the smoke gate and the kill -9 test assert this).
        dropped_tail: 1 when a partial trailing WAL record was dropped.
        quarantined: Corrupt files moved to ``*.corrupt`` during replay.
    """

    jobs: int = 0
    requeued: int = 0
    finished: int = 0
    duplicate_finishes: int = 0
    dropped_tail: int = 0
    quarantined: List[Path] = field(default_factory=list)


class JobQueue:
    """Bounded, journaled, priority job queue (thread-safe).

    Args:
        journal: The write-ahead journal backing the queue.
        max_queued: Admission bound on jobs waiting in the lanes.
        shed_ratio: Fraction of ``max_queued`` beyond which new
            low-priority submissions are shed.
        cache_probe: Optional ``probe(job) -> payload-or-miss-sentinel``
            consulted at submit time; a hit completes the job instantly
            (content-addressed artifact reuse).  Use
            :data:`~repro.serve.queue._MISS` via :meth:`miss_sentinel`
            to signal a miss.
        metrics: Shared :class:`~repro.serve.metrics.ServeMetrics`
            (a private one is created when None).
        rotate_every: Journal records between automatic compactions.
    """

    def __init__(
        self,
        journal: JobJournal,
        max_queued: int = 64,
        shed_ratio: float = 0.8,
        cache_probe: Optional[Callable[[Job], Any]] = None,
        metrics: Optional[ServeMetrics] = None,
        rotate_every: int = 4096,
    ) -> None:
        self.journal = journal
        self.max_queued = max(1, int(max_queued))
        self.shed_ratio = min(max(float(shed_ratio), 0.0), 1.0)
        self.cache_probe = cache_probe
        self.metrics = metrics or ServeMetrics()
        self.rotate_every = max(16, int(rotate_every))
        self.jobs: Dict[str, Job] = {}
        self._lanes: Dict[str, Deque[str]] = {
            lane: deque() for lane in PRIORITIES
        }
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._draining = False
        self._appended = 0

    @staticmethod
    def miss_sentinel() -> Any:
        """Return the sentinel a cache probe yields on a miss."""
        return _MISS

    # ------------------------------------------------------------------
    # Journal plumbing.
    # ------------------------------------------------------------------

    def _log(self, record: Dict[str, Any]) -> None:
        """Append one WAL record (caller holds the lock)."""
        record["ts"] = round(time.time(), 6)
        self.journal.append(record)
        self._appended += 1
        if self._appended >= self.rotate_every:
            self._rotate_locked()

    def _rotate_locked(self) -> None:
        self.journal.rotate(self._snapshot_locked())
        self._appended = 0

    def _snapshot_locked(self) -> Dict[str, Any]:
        return {
            "jobs": {job_id: job.to_dict()
                     for job_id, job in self.jobs.items()}
        }

    def rotate(self) -> None:
        """Compact the journal now (snapshot + WAL truncate)."""
        with self._lock:
            self._rotate_locked()

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Rebuild the job table from the journal and re-queue survivors.

        Returns:
            A :class:`RecoveryReport`; after it, the journal is
            compacted and every previously queued/running job is queued
            again (oldest first, per lane).
        """
        report = RecoveryReport()
        recovery = self.journal.replay()
        report.dropped_tail = recovery.dropped_tail
        report.quarantined = list(recovery.quarantined)
        finishes: Dict[str, int] = {}
        with self._lock:
            for data in recovery.snapshot.get("jobs", {}).values():
                job = Job.from_dict(data)
                self.jobs[job.id] = job
            for record in recovery.records:
                self._apply_locked(record, finishes)
            report.duplicate_finishes = sum(
                count - 1 for count in finishes.values() if count > 1
            )
            for job in sorted(
                self.jobs.values(), key=lambda j: j.submitted_at
            ):
                if job.state in (JobState.QUEUED, JobState.RUNNING):
                    if job.cancel_requested:
                        # The cancel beat the crash; honour it.
                        job.state = JobState.CANCELLED
                        job.finished_at = time.time()
                        report.finished += 1
                        continue
                    job.state = JobState.QUEUED
                    job.attempts = 0
                    self._lanes[self._lane_of(job)].append(job.id)
                    report.requeued += 1
                elif job.state.terminal:
                    report.finished += 1
            report.jobs = len(self.jobs)
            # Compact: the recovered table becomes the snapshot and the
            # (possibly damaged) WAL is truncated, so each journal
            # stream contains at most one finish per job.
            self._rotate_locked()
            self._refresh_gauges_locked()
            if report.requeued:
                self.metrics.requeued.inc(report.requeued)
            self._available.notify_all()
        return report

    def _apply_locked(
        self, record: Dict[str, Any], finishes: Dict[str, int]
    ) -> None:
        """Fold one WAL record into the job table (replay only)."""
        event = record.get("event")
        if event == "submit":
            job = Job.from_dict(record.get("job", {}))
            existing = self.jobs.get(job.id)
            if existing is None or existing.state.terminal:
                self.jobs[job.id] = job
            return
        job_id = str(record.get("id", ""))
        job = self.jobs.get(job_id)
        if job is None:
            return
        if event == "start":
            job.state = JobState.RUNNING
            job.attempts = int(record.get("attempt", job.attempts + 1))
            job.started_at = record.get("ts", job.started_at)
        elif event == "finish":
            job.state = JobState.DONE
            job.result = record.get("result")
            job.cached = bool(record.get("cached", False))
            job.seconds = float(record.get("seconds", 0.0))
            job.attempts = int(record.get("attempts", job.attempts))
            job.finished_at = record.get("ts")
            finishes[job_id] = finishes.get(job_id, 0) + 1
        elif event == "fail":
            quarantine = bool(record.get("quarantine", False))
            job.state = (
                JobState.QUARANTINED if quarantine else JobState.FAILED
            )
            job.error = record.get("error")
            job.error_type = record.get("error_type")
            job.seconds = float(record.get("seconds", 0.0))
            job.attempts = int(record.get("attempts", job.attempts))
            job.finished_at = record.get("ts")
        elif event == "cancel":
            if job.state in (JobState.QUEUED,):
                job.state = JobState.CANCELLED
                job.finished_at = record.get("ts")
            else:
                job.cancel_requested = True
        elif event == "cancelled":
            job.state = JobState.CANCELLED
            job.finished_at = record.get("ts")
        elif event == "shed":
            job.state = JobState.SHED
            job.finished_at = record.get("ts")

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------

    def _lane_of(self, job: Job) -> str:
        return job.priority if job.priority in self._lanes else "normal"

    def _depth_locked(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def _refresh_gauges_locked(self) -> None:
        for name, lane in self._lanes.items():
            self.metrics.queue_depth.set(len(lane), lane=name)
        running = sum(
            1 for job in self.jobs.values()
            if job.state is JobState.RUNNING
        )
        self.metrics.running.set(running)

    def submit(
        self,
        runner: str,
        params: Dict[str, Any],
        priority: str = "normal",
    ) -> "tuple[Job, str]":
        """Admit (or coalesce) one job.

        Args:
            runner: Registered runner name.
            params: Runner keyword arguments (JSON-able primitives).
            priority: Lane name (``high``/``normal``/``low``).

        Returns:
            ``(job, outcome)`` where outcome is ``"accepted"`` (queued),
            ``"dedup"`` (an identical job already exists in any
            non-shed state), or ``"cached"`` (completed instantly from
            the artifact cache).

        Raises:
            AdmissionError: When draining, full, or shedding low
                priority under pressure.
            KeyError: Unknown runner name.
            ValueError: Unknown priority lane, or params the runner
                can never run with (see
                :func:`~repro.serve.jobs.check_params`).
        """
        if runner not in POINT_RUNNERS:
            raise KeyError(
                f"unknown runner {runner!r}; choose from "
                f"{sorted(POINT_RUNNERS)}"
            )
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; choose from {PRIORITIES}"
            )
        check_params(runner, params)
        job_id = job_digest(runner, params)
        with self._lock:
            existing = self.jobs.get(job_id)
            if existing is not None and existing.state is not JobState.SHED:
                # Dedup: failed/cancelled jobs re-queue on resubmit,
                # quarantined (poison) jobs never re-run.
                if existing.state in (
                    JobState.FAILED, JobState.CANCELLED
                ):
                    return self._requeue_locked(existing, priority)
                self.metrics.deduped.inc()
                return existing, "dedup"
            if self._draining:
                self.metrics.rejected.inc(reason="draining")
                raise AdmissionError(
                    "daemon is draining", reason="draining"
                )
            job = Job(
                id=job_id,
                runner=runner,
                params=dict(params),
                priority=priority,
                submitted_at=time.time(),
            )
            if self._probe_locked(job):
                return job, "cached"
            depth = self._depth_locked()
            if (
                priority == "low"
                and depth >= self.max_queued * self.shed_ratio
            ):
                self.metrics.rejected.inc(reason="shedding")
                raise AdmissionError(
                    "queue under pressure; low-priority work shed",
                    reason="shedding",
                )
            if depth >= self.max_queued:
                if priority == "high" and self._shed_one_locked():
                    pass  # made room by shedding a low-priority job
                else:
                    self.metrics.rejected.inc(reason="full")
                    raise AdmissionError("queue full", reason="full")
            self.jobs[job_id] = job
            self._log({"event": "submit", "job": job.to_dict()})
            self._lanes[self._lane_of(job)].append(job_id)
            self.metrics.submitted.inc(priority=priority)
            self._refresh_gauges_locked()
            self._available.notify()
            return job, "accepted"

    def _requeue_locked(
        self, job: Job, priority: str
    ) -> "tuple[Job, str]":
        """Give a failed/cancelled job another life (resubmission)."""
        if self._draining:
            self.metrics.rejected.inc(reason="draining")
            raise AdmissionError("daemon is draining", reason="draining")
        if self._depth_locked() >= self.max_queued:
            self.metrics.rejected.inc(reason="full")
            raise AdmissionError("queue full", reason="full")
        job.state = JobState.QUEUED
        job.priority = priority
        job.attempts = 0
        job.error = job.error_type = None
        job.cancel_requested = False
        job.submitted_at = time.time()
        job.started_at = job.finished_at = None
        self._log({"event": "submit", "job": job.to_dict()})
        self._lanes[self._lane_of(job)].append(job.id)
        self.metrics.submitted.inc(priority=priority)
        self._refresh_gauges_locked()
        self._available.notify()
        return job, "accepted"

    def _probe_locked(self, job: Job) -> bool:
        """Serve the job from the artifact cache if it is already there."""
        if self.cache_probe is None:
            return False
        try:
            payload = self.cache_probe(job)
        except Exception:
            return False
        if payload is _MISS:
            return False
        now = time.time()
        job.state = JobState.DONE
        job.result = payload
        job.cached = True
        job.finished_at = now
        self.jobs[job.id] = job
        self._log({"event": "submit", "job": job.to_dict()})
        self._log({
            "event": "finish", "id": job.id, "result": payload,
            "cached": True, "seconds": 0.0, "attempts": 0,
        })
        self.metrics.submitted.inc(priority=job.priority)
        self.metrics.cache_served.inc()
        self.metrics.completed.inc(status="ok")
        return True

    def _shed_one_locked(self) -> bool:
        """Drop the youngest queued low-priority job; True on success."""
        lane = self._lanes["low"]
        if not lane:
            return False
        job_id = lane.pop()
        job = self.jobs[job_id]
        job.state = JobState.SHED
        job.finished_at = time.time()
        self._log({"event": "shed", "id": job_id})
        self.metrics.completed.inc(status="shed")
        self._refresh_gauges_locked()
        return True

    # ------------------------------------------------------------------
    # Worker side.
    # ------------------------------------------------------------------

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the next job (highest lane first, FIFO within a lane).

        Blocks up to ``timeout`` seconds for work; returns None on
        timeout or when draining with nothing queued.  The claimed job
        transitions to ``running`` (journaled).
        """
        with self._lock:
            if self._depth_locked() == 0 and not self._draining:
                self._available.wait(timeout)
            for lane in PRIORITIES:
                queue = self._lanes[lane]
                while queue:
                    job_id = queue.popleft()
                    job = self.jobs[job_id]
                    if job.state is not JobState.QUEUED:
                        continue  # cancelled while queued
                    job.state = JobState.RUNNING
                    job.attempts += 1
                    job.started_at = time.time()
                    self._log({
                        "event": "start", "id": job_id,
                        "attempt": job.attempts,
                    })
                    self._refresh_gauges_locked()
                    return job
            return None

    def note_attempt(self, job: Job) -> None:
        """Journal one extra execution attempt of a running job."""
        with self._lock:
            job.attempts += 1
            self._log({
                "event": "start", "id": job.id, "attempt": job.attempts,
            })
            self.metrics.retries.inc()

    def finish(
        self,
        job: Job,
        result: Any,
        seconds: float = 0.0,
        cached: bool = False,
    ) -> None:
        """Commit a completed job (journaled before visible)."""
        with self._lock:
            self._log({
                "event": "finish", "id": job.id, "result": result,
                "cached": cached, "seconds": round(seconds, 6),
                "attempts": job.attempts,
            })
            job.state = JobState.DONE
            job.result = result
            job.cached = cached
            job.seconds = seconds
            job.finished_at = time.time()
            self.metrics.completed.inc(status="ok")
            self.metrics.job_seconds.observe(seconds, runner=job.runner)
            self._refresh_gauges_locked()

    def fail(
        self,
        job: Job,
        error: str,
        error_type: str,
        quarantine: bool = False,
        seconds: float = 0.0,
    ) -> None:
        """Commit a failed job; ``quarantine`` poisons it permanently."""
        with self._lock:
            self._log({
                "event": "fail", "id": job.id, "error": error,
                "error_type": error_type, "quarantine": quarantine,
                "seconds": round(seconds, 6), "attempts": job.attempts,
            })
            job.state = (
                JobState.QUARANTINED if quarantine else JobState.FAILED
            )
            job.error = error
            job.error_type = error_type
            job.seconds = seconds
            job.finished_at = time.time()
            status = "quarantined" if quarantine else "failed"
            self.metrics.completed.inc(status=status)
            self.metrics.job_seconds.observe(seconds, runner=job.runner)
            self._refresh_gauges_locked()

    def mark_cancelled(self, job: Job, seconds: float = 0.0) -> None:
        """Commit a running job's cancellation (worker-side)."""
        with self._lock:
            self._log({"event": "cancelled", "id": job.id})
            job.state = JobState.CANCELLED
            job.seconds = seconds
            job.finished_at = time.time()
            self.metrics.completed.inc(status="cancelled")
            self._refresh_gauges_locked()

    # ------------------------------------------------------------------
    # Client side.
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """Return the job with ``job_id`` (None when unknown)."""
        with self._lock:
            return self.jobs.get(job_id)

    def list_jobs(self, state: Optional[str] = None) -> List[Job]:
        """Return jobs (optionally filtered by state), oldest first."""
        with self._lock:
            jobs = sorted(
                self.jobs.values(), key=lambda j: j.submitted_at
            )
        if state is not None:
            jobs = [job for job in jobs if job.state.value == state]
        return jobs

    def cancel(self, job_id: str) -> str:
        """Request cancellation of a job.

        Returns:
            ``"cancelled"`` (was queued, now terminal),
            ``"cancelling"`` (running; the pool will stop it),
            ``"terminal"`` (already finished) or ``"unknown"``.
        """
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                return "unknown"
            if job.state is JobState.QUEUED:
                self._log({"event": "cancel", "id": job_id})
                job.state = JobState.CANCELLED
                job.finished_at = time.time()
                try:
                    self._lanes[self._lane_of(job)].remove(job_id)
                except ValueError:
                    pass
                self.metrics.completed.inc(status="cancelled")
                self._refresh_gauges_locked()
                return "cancelled"
            if job.state is JobState.RUNNING:
                self._log({"event": "cancel", "id": job_id})
                job.cancel_requested = True
                return "cancelling"
            return "terminal"

    # ------------------------------------------------------------------
    # Drain / introspection.
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting work; queued jobs still run, then workers idle."""
        with self._lock:
            self._draining = True
            self.metrics.draining.set(1)
            self._available.notify_all()

    @property
    def draining(self) -> bool:
        """Whether the queue is refusing new submissions."""
        return self._draining

    def pending(self) -> int:
        """Return queued + running job count (drain-completion check)."""
        with self._lock:
            return sum(
                1 for job in self.jobs.values()
                if not job.state.terminal
            )

    def depth(self) -> int:
        """Return the number of currently queued jobs."""
        with self._lock:
            return self._depth_locked()

    def counts(self) -> Dict[str, int]:
        """Return ``{state: count}`` over the whole job table."""
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self.jobs.values():
                counts[job.state.value] = (
                    counts.get(job.state.value, 0) + 1
                )
            return counts
