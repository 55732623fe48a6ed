"""Job model of the serve daemon: content-addressed, speculative units.

Every job the daemon accepts is treated the way the simulated processor
treats a speculative thread: cheap to re-execute, safe to squash, and
committed exactly once.  A job's identity is the blake2b digest of its
canonical ``(runner, params)`` encoding — the same canonical-JSON
keying the artifact cache uses — so an identical resubmission *is* the
same job (dedup), and a completed job's payload is content-addressed in
the shared :class:`~repro.cache.ArtifactCache` (an identical config
digest is served from the cache without re-simulation).

Jobs run the parallel engine's point runners
(:data:`~repro.experiments.engine.POINT_RUNNERS`), and their failures
follow the one retry policy every attempt runner shares
(:func:`repro.errors.classify_failure`).
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from repro.experiments.engine import POINT_RUNNERS
from repro.experiments.framework import EXPERIMENT_CONFIG, policy_names
from repro.obs.manifest import config_digest
from repro.workloads import workload_names

__all__ = [
    "Job",
    "JobState",
    "PRIORITIES",
    "job_digest",
    "check_params",
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


def job_digest(runner: str, params: Dict[str, Any]) -> str:
    """Content-addressed job id: blake2b over canonical (runner, params).

    Args:
        runner: Registered runner name (a
            :data:`~repro.experiments.engine.POINT_RUNNERS` key).
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
        cancel_requested: Cancellation flag the worker pool polls (it
            hard-kills a running attempt).
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


def check_params(runner: str, params: Dict[str, Any]) -> None:
    """Reject job parameters no attempt could ever run with.

    The params must bind to the runner's signature.  A ``simulate``
    job must also name a known workload and policy, give a real-number
    ``scale``, and carry ``overrides`` that build a valid processor
    configuration.  Checked at submit time: the worker-side failure
    would be a ``KeyError``/``TypeError``/``ValueError``, which retries
    as transient.

    Args:
        runner: Registered runner name.
        params: Runner keyword arguments.

    Raises:
        ValueError: Describing the first problem found.
    """
    try:
        inspect.signature(POINT_RUNNERS[runner]).bind(**params)
        if runner == "simulate":
            _check_simulate(**params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {runner!r} params: {exc}") from None


def _check_simulate(
    name: Any, policy: Any, scale: Any, overrides: Any
) -> None:
    """Raise ``ValueError`` unless a ``simulate`` job's params can run."""
    if name not in workload_names():
        raise ValueError(f"unknown workload {name!r}")
    if policy not in policy_names():
        raise ValueError(f"unknown policy {policy!r}")
    if isinstance(scale, bool) or not isinstance(scale, numbers.Real):
        raise ValueError(f"scale must be a number, not {scale!r}")
    EXPERIMENT_CONFIG.with_(**overrides)
