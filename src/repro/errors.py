"""Structured error taxonomy for execution and simulation failures.

Every failure a long experiment campaign can encounter maps onto one of
these classes so the experiment runner (and the CLI) can distinguish
"this run is broken" from "this run needs more budget" from "the
simulator itself violated an invariant":

- :class:`ExecutionError` — architectural errors in the functional
  machine (bad pc, return without call, unimplemented opcode).
- :class:`SimulationError` — base of every structured simulator failure.
  Carries a context dict (cycle, thread, workload, ...) rendered into
  the message so a one-line report is actionable.
- :class:`SimulationTimeout` — a cycle-budget or wall-clock limit was
  exceeded; the run may succeed with a larger budget.
- :class:`InvariantViolation` — the simulator's internal consistency
  checks failed; always a bug, never data.
- :class:`WorkloadError` — the workload program itself misbehaved
  (e.g. did not halt within its step budget).  Subclasses both
  :class:`SimulationError` and :class:`ExecutionError` so existing
  ``except ExecutionError`` call sites keep working.

:func:`classify_failure` maps the family onto the one retry policy
every attempt runner shares (sweeps, dist workers and the serve pool,
all through :func:`~repro.experiments.framework.run_resilient`).
"""

from __future__ import annotations

from typing import Any, Dict, Type


class ExecutionError(RuntimeError):
    """Raised on architectural errors (bad pc, return without call, ...)."""


class SimulationError(RuntimeError):
    """Base class of structured simulator failures.

    Keyword arguments become a ``context`` dict appended to the message,
    e.g. ``SimulationError("stuck", cycle=12, thread=3)`` renders as
    ``stuck [cycle=12, thread=3]``.
    """

    def __init__(self, message: str, **context: Any):
        self.context: Dict[str, Any] = {
            key: value for key, value in context.items() if value is not None
        }
        if self.context:
            detail = ", ".join(
                f"{key}={value}" for key, value in sorted(self.context.items())
            )
            message = f"{message} [{detail}]"
        super().__init__(message)


class SimulationTimeout(SimulationError):
    """A cycle-budget or wall-clock limit was exceeded."""


class InvariantViolation(SimulationError):
    """The simulator's internal consistency checks failed (always a bug)."""


class WorkloadError(SimulationError, ExecutionError):
    """The workload program misbehaved (e.g. a runaway loop)."""


class JobCancelled(RuntimeError):
    """Raised inside an attempt when its job's cancellation fired."""


#: Exception class name -> class, for rebuilding a failure that crossed
#: a process boundary with the taxonomy intact.
TAXONOMY: Dict[str, Type[BaseException]] = {
    "SimulationTimeout": SimulationTimeout,
    "InvariantViolation": InvariantViolation,
    "WorkloadError": WorkloadError,
    "ExecutionError": ExecutionError,
    "JobCancelled": JobCancelled,
}


def classify_failure(exc: BaseException) -> str:
    """Map a failure onto the shared retry policy.

    Args:
        exc: The exception an attempt raised.

    Returns:
        ``"poison"`` (never re-run: a simulator bug re-executes
        identically) for :class:`InvariantViolation`; ``"cancelled"``
        for :class:`JobCancelled`; ``"fatal"`` (fail, no retry) for
        :class:`WorkloadError` and :class:`ExecutionError`;
        ``"transient"`` (retry with backoff) for everything else,
        including :class:`SimulationTimeout`.
    """
    if isinstance(exc, InvariantViolation):
        return "poison"
    if isinstance(exc, JobCancelled):
        return "cancelled"
    if isinstance(exc, (WorkloadError, ExecutionError)):
        return "fatal"
    return "transient"


def rebuild_failure(error_type: str, message: str) -> BaseException:
    """Reconstruct a failure reported by class name as a taxonomy exception.

    Args:
        error_type: The exception class name the attempt reported.
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
