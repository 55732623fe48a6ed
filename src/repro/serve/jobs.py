"""Job model of the serve daemon: content-addressed, speculative units.

Every job the daemon accepts is treated the way the simulated processor
treats a speculative thread: cheap to re-execute, safe to squash, and
committed exactly once.  A job's identity is the blake2b digest of its
canonical ``(runner, params)`` encoding — the same canonical-JSON
keying the artifact cache uses — so an identical resubmission *is* the
same job (dedup), and a completed job's payload is content-addressed in
the shared :class:`~repro.cache.ArtifactCache` (an identical config
digest is served from the cache without re-simulation).

Failures classify through the :mod:`repro.errors` taxonomy:

- transient (``SimulationTimeout``, generic ``Exception``) → retried
  with jittered exponential backoff;
- fatal (``WorkloadError``/``ExecutionError``) → failed immediately,
  never retried;
- poison (``InvariantViolation``) → quarantined: recorded, surfaced,
  and **never** re-run (a simulator bug re-executes identically).
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional, Type

from repro.errors import (
    ExecutionError,
    InvariantViolation,
    SimulationTimeout,
    WorkloadError,
)
from repro.obs.manifest import config_digest

__all__ = [
    "Job",
    "JobState",
    "JobCancelled",
    "JOB_RUNNERS",
    "PRIORITIES",
    "job_digest",
    "check_params",
    "classify_failure",
    "execute_job_payload",
    "current_cancel_event",
]

#: Priority lanes, highest first; admission control and the queue's
#: claim order both follow this order.
PRIORITIES = ("high", "normal", "low")


class JobState(str, Enum):
    """Lifecycle states of a job (str-valued for JSON round-trips)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    QUARANTINED = "quarantined"
    SHED = "shed"

    @property
    def terminal(self) -> bool:
        """Whether the state is final (no further transitions)."""
        return self not in (JobState.QUEUED, JobState.RUNNING)


class JobCancelled(RuntimeError):
    """Raised inside an attempt when the job's cancellation fired."""


def job_digest(runner: str, params: Dict[str, Any]) -> str:
    """Content-addressed job id: blake2b over canonical (runner, params).

    Args:
        runner: Registered runner name (a :data:`JOB_RUNNERS` key).
        params: The runner's keyword arguments (JSON-able primitives).

    Returns:
        A 32-hex-character digest; equal digests mean the same job.
    """
    return config_digest({"runner": runner, "params": params})


@dataclass
class Job:
    """One accepted unit of work and its full lifecycle record.

    Attributes:
        id: Content digest of ``(runner, params)`` (see
            :func:`job_digest`).
        runner: Registered runner name.
        params: Runner keyword arguments.
        priority: Lane name (one of :data:`PRIORITIES`).
        state: Current :class:`JobState`.
        attempts: Execution attempts consumed in this life (resets when
            a crash-recovered job is requeued — re-running a
            half-finished job is recovery, not failure).
        result: The runner's JSON payload once ``done``.
        error: Last failure message (``failed``/``quarantined``).
        error_type: Last failure's exception class name.
        cached: Whether the result was served from the artifact cache
            (or a dedup hit) without executing.
        cancel_requested: Cooperative-cancellation flag read by the
            worker pool.
        submitted_at: Unix timestamp of admission.
        started_at: Unix timestamp of the first execution attempt.
        finished_at: Unix timestamp of reaching a terminal state.
        seconds: Wall-clock seconds of the finishing execution.
    """

    id: str
    runner: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: str = "normal"
    state: JobState = JobState.QUEUED
    attempts: int = 0
    result: Optional[Any] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    cached: bool = False
    cancel_requested: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON view of the job (see :meth:`from_dict`)."""
        return {
            "id": self.id,
            "runner": self.runner,
            "params": self.params,
            "priority": self.priority,
            "state": self.state.value,
            "attempts": self.attempts,
            "result": self.result,
            "error": self.error,
            "error_type": self.error_type,
            "cached": self.cached,
            "cancel_requested": self.cancel_requested,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        """Rebuild and return a job from its :meth:`to_dict` encoding."""
        return cls(
            id=str(data["id"]),
            runner=str(data["runner"]),
            params=dict(data.get("params", {})),
            priority=str(data.get("priority", "normal")),
            state=JobState(data.get("state", "queued")),
            attempts=int(data.get("attempts", 0)),
            result=data.get("result"),
            error=data.get("error"),
            error_type=data.get("error_type"),
            cached=bool(data.get("cached", False)),
            cancel_requested=bool(data.get("cancel_requested", False)),
            submitted_at=float(data.get("submitted_at", 0.0)),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            seconds=float(data.get("seconds", 0.0)),
        )

    def status_dict(self) -> Dict[str, Any]:
        """Return the public status view (the ``/jobs/<id>`` response)."""
        view = self.to_dict()
        view.pop("result", None)
        return view


# ----------------------------------------------------------------------
# Failure classification (repro.errors taxonomy -> retry policy).
# ----------------------------------------------------------------------

#: Exception class name -> class, for rebuilding child-process failures
#: in the parent with the taxonomy intact.
TAXONOMY: Dict[str, Type[BaseException]] = {
    "SimulationTimeout": SimulationTimeout,
    "InvariantViolation": InvariantViolation,
    "WorkloadError": WorkloadError,
    "ExecutionError": ExecutionError,
    "JobCancelled": JobCancelled,
}


def classify_failure(exc: BaseException) -> str:
    """Map a failure onto the daemon's retry policy.

    Args:
        exc: The exception an attempt raised.

    Returns:
        ``"poison"`` (quarantine, never re-run) for
        :class:`~repro.errors.InvariantViolation`; ``"cancelled"`` for
        :class:`JobCancelled`; ``"fatal"`` (fail, no retry) for
        :class:`~repro.errors.WorkloadError` and
        :class:`~repro.errors.ExecutionError`; ``"transient"`` (retry
        with backoff) for everything else, including
        :class:`~repro.errors.SimulationTimeout`.
    """
    if isinstance(exc, InvariantViolation):
        return "poison"
    if isinstance(exc, JobCancelled):
        return "cancelled"
    if isinstance(exc, (WorkloadError, ExecutionError)):
        return "fatal"
    return "transient"


def rebuild_failure(error_type: str, message: str) -> BaseException:
    """Reconstruct a child-process failure as a taxonomy exception.

    Args:
        error_type: The exception class name the child reported.
        message: The failure message.

    Returns:
        An instance of the matching taxonomy class (plain
        ``RuntimeError`` for unknown names, which classifies as
        transient).
    """
    cls = TAXONOMY.get(error_type, RuntimeError)
    try:
        return cls(message)
    except Exception:  # pragma: no cover - exotic constructors
        return RuntimeError(f"{error_type}: {message}")


# ----------------------------------------------------------------------
# Runners.
# ----------------------------------------------------------------------

#: Thread-local carrying the executing job's cancel event so runners
#: that poll (e.g. ``sleep``) can cooperate with cancellation even in
#: thread execution mode.
_EXECUTION_LOCAL = threading.local()


def current_cancel_event() -> Optional[threading.Event]:
    """Return the executing job's cancel event (None outside a job)."""
    return getattr(_EXECUTION_LOCAL, "cancel_event", None)


def set_cancel_event(event: Optional[threading.Event]) -> None:
    """Install ``event`` as the executing job's cancel signal."""
    _EXECUTION_LOCAL.cancel_event = event


def _runner_sleep(
    duration: float = 0.1,
    fail: Optional[str] = None,
    fail_file: Optional[str] = None,
    tag: Optional[str] = None,
) -> Dict[str, Any]:
    """Deterministic test/bench workload: sleep, optionally misbehave.

    Args:
        duration: Seconds to sleep (in small cancellable increments).
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
    cancel = current_cancel_event()
    deadline = time.monotonic() + max(float(duration), 0.0)
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        if cancel is not None and cancel.is_set():
            raise JobCancelled("job cancelled while sleeping")
        time.sleep(min(remaining, 0.02))
    if fail_file is not None:
        import os

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


def _job_runners() -> Dict[str, Callable[..., Dict[str, Any]]]:
    """Build the runner registry (engine runners + serve extras)."""
    from repro.experiments.engine import POINT_RUNNERS

    runners: Dict[str, Callable[..., Dict[str, Any]]] = dict(POINT_RUNNERS)
    runners["sleep"] = _runner_sleep
    return runners


#: Runner name -> callable.  ``simulate`` and ``campaign`` are the
#: parallel engine's point runners (so serve jobs and ``repro exp``
#: sweeps share cache artifacts); ``sleep`` is the deterministic
#: load/chaos workload.
JOB_RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = _job_runners()

#: Runner names whose payloads are memoized in the artifact cache under
#: the ``point`` kind — exactly the engine's keying, so a sweep warmed
#: by ``repro exp`` serves the daemon (and vice versa).
CACHED_RUNNERS = ("simulate", "campaign")


def check_params(runner: str, params: Dict[str, Any]) -> None:
    """Reject job parameters no attempt could ever run with.

    The params must bind to the runner's signature, and a ``simulate``
    job's ``overrides`` must build a valid processor configuration.
    Checked at submit time: the worker-side failure would be a
    ``TypeError``/``ValueError``, which retries as transient.

    Args:
        runner: Registered runner name.
        params: Runner keyword arguments.

    Raises:
        ValueError: Describing the first problem found.
    """
    try:
        inspect.signature(JOB_RUNNERS[runner]).bind(**params)
        if runner == "simulate":
            from repro.experiments.framework import EXPERIMENT_CONFIG

            EXPERIMENT_CONFIG.with_(**params["overrides"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {runner!r} params: {exc}") from None


def cache_key_fields(job: Job) -> Dict[str, Any]:
    """Return the artifact-cache key fields of a cacheable job."""
    return {"runner": job.runner, **job.params}


def execute_job_payload(
    runner: str, params: Dict[str, Any], cache: Optional[Any] = None
) -> Any:
    """Execute one job body, memoizing cacheable payloads.

    Args:
        runner: Registered runner name.
        params: Runner keyword arguments.
        cache: Active :class:`~repro.cache.ArtifactCache` (None
            disables memoization).

    Returns:
        The runner's JSON-serialisable payload.
    """
    from repro.experiments import framework

    fn = JOB_RUNNERS[runner]
    previous = framework.set_cache(cache)
    try:
        if cache is None or runner not in CACHED_RUNNERS:
            return fn(**params)
        return cache.get_or_create(
            "point", lambda: fn(**params), runner=runner, **params
        )
    finally:
        framework.set_cache(previous)
