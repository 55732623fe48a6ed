"""Work-stealing scheduler for heterogeneous sweep-point costs.

Sweep points are wildly uneven — a full-scale ``gcc`` simulation costs
an order of magnitude more than ``compress`` — so fixed round-robin
assignment leaves workers idle behind one long tail job.  The scheduler
here is pull-based: tasks are seeded **longest-job-first** into one
global deque (cost priors come from the per-point ``seconds`` recorded
in earlier sweeps' telemetry manifests, see :class:`CostModel`), and an
idle worker *steals* the next task from its front.

Every grant is tracked as a **lease** until the worker reports the
result; a worker declared dead (heartbeat silence, socket EOF, or a
blown per-task deadline) has its leased tasks requeued at the *front*
of the global deque — they have waited longest.  Completion is recorded
at most once per key: a late duplicate from a worker that was wrongly
declared dead is counted in ``duplicate_finishes`` and dropped, which
is what makes requeue-on-death exactly-once.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Union

__all__ = ["CostModel", "WorkStealingScheduler"]


@dataclass
class CostModel:
    """Per-point cost priors (expected seconds) for scheduling order.

    Attributes:
        priors: Point key -> expected seconds (from earlier telemetry).
            A point never seen before costs 0.0: unseen points sort
            *after* known ones but keep their submission order among
            themselves.
    """

    priors: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_manifests(
        cls, telemetry_dir: Optional[Union[str, Path]]
    ) -> "CostModel":
        """Build cost priors from a telemetry directory's manifests.

        Reads every per-point :class:`~repro.obs.manifest.RunManifest`
        under ``telemetry_dir`` (the sweep rollup is skipped) and uses
        each point's recorded wall-clock ``seconds`` as its prior.

        Args:
            telemetry_dir: Directory ``repro exp --telemetry`` wrote
                (None or a missing directory yields an empty model).

        Returns:
            The populated cost model.
        """
        priors: Dict[str, float] = {}
        if telemetry_dir is not None:
            from repro.obs.manifest import read_manifests

            for stem, manifest in read_manifests(telemetry_dir).items():
                if stem == "sweep.manifest":
                    continue
                name = manifest.get("name")
                seconds = manifest.get("seconds")
                if isinstance(name, str) and isinstance(seconds, (int, float)):
                    priors[name] = float(seconds)
        return cls(priors=priors)

    def estimate(self, key: str) -> float:
        """Return the expected cost in seconds of the point ``key``."""
        return self.priors.get(key, 0.0)


class WorkStealingScheduler:
    """Leased, work-stealing task dispatch with exactly-once completion.

    Tasks are any objects with a unique ``key`` attribute (the engine's
    :class:`~repro.experiments.engine.Point`).  They sit in one global
    deque in longest-job-first order, and every idle worker steals from
    its front; the fleet may join late (the remote backend).

    All methods are thread-safe: the remote coordinator calls them from
    one handler thread per connection.

    Args:
        tasks: The sweep's task objects; keys must be unique.
        cost: Cost priors ordering the seeding (None = submission
            order, which a default :class:`CostModel` preserves).
    """

    def __init__(
        self,
        tasks: Sequence[Any],
        cost: Optional[CostModel] = None,
    ) -> None:
        self._lock = threading.RLock()
        cost = cost or CostModel()
        self._tasks: Dict[str, Any] = {}
        for task in tasks:
            if task.key in self._tasks:
                raise ValueError(f"duplicate task key {task.key!r}")
            self._tasks[task.key] = task
        order = {task.key: index for index, task in enumerate(tasks)}
        # Longest-job-first; submission order breaks ties so the seeding
        # stays deterministic for equal (or absent) priors.
        self._global: Deque[str] = deque(
            sorted(
                self._tasks,
                key=lambda key: (-cost.estimate(key), order[key]),
            )
        )
        self._leases: Dict[str, str] = {}  # key -> worker id
        self._completed: Set[str] = set()
        self.dispatched: Dict[str, int] = {}
        self.requeues = 0
        self.duplicate_finishes = 0

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def register(self, worker: str) -> None:
        """Register a (possibly late-joining) worker id."""
        with self._lock:
            self.dispatched.setdefault(worker, 0)

    def next_task(self, worker: str) -> Optional[Any]:
        """Grant ``worker`` the task at the global deque's front.

        The granted task is leased to ``worker`` until :meth:`complete`
        or :meth:`requeue_worker` releases it.

        Args:
            worker: The requesting worker's id.

        Returns:
            The task object, or None when nothing is queued right now
            (tasks may still be leased elsewhere — see :meth:`done`).
        """
        with self._lock:
            self.register(worker)
            if not self._global:
                return None
            key = self._global.popleft()
            self._leases[key] = worker
            self.dispatched[worker] += 1
            return self._tasks[key]

    # ------------------------------------------------------------------
    # Completion and failure.
    # ------------------------------------------------------------------

    def complete(self, worker: str, key: str) -> bool:
        """Record a finished task; exactly-once.

        Args:
            worker: The reporting worker's id.
            key: The completed task's key.

        Returns:
            True the first time ``key`` completes (the caller should
            commit the result); False for a duplicate finish, which is
            counted in ``duplicate_finishes`` and must be dropped.
        """
        with self._lock:
            if key not in self._tasks:
                return False
            if self._leases.get(key) == worker:
                del self._leases[key]
            if key in self._completed:
                self.duplicate_finishes += 1
                return False
            self._completed.add(key)
            return True

    def requeue_worker(self, worker: str) -> List[str]:
        """Requeue a dead worker's leases at the global deque's front.

        Args:
            worker: The worker declared dead.

        Returns:
            The requeued task keys (empty when the worker was idle).
        """
        with self._lock:
            lost = sorted(
                key for key, owner in self._leases.items() if owner == worker
            )
            for key in reversed(lost):
                del self._leases[key]
                self._global.appendleft(key)
                self.requeues += 1
            return lost

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def leases_of(self, worker: str) -> List[str]:
        """Return the keys currently leased to ``worker``."""
        with self._lock:
            return sorted(
                key for key, owner in self._leases.items() if owner == worker
            )

    def outstanding(self) -> int:
        """Return how many tasks have not completed yet."""
        with self._lock:
            return len(self._tasks) - len(self._completed)

    def done(self) -> bool:
        """Report sweep completion.

        Returns:
            True once every task has completed exactly once.
        """
        with self._lock:
            return len(self._completed) == len(self._tasks)

    def snapshot(self) -> Dict[str, Any]:
        """Return the scheduler's counters (for fleet telemetry).

        Returns:
            A JSON-able dict: totals, lost count (0 after a completed
            sweep), per-worker dispatch counts, requeues and duplicate
            finishes.
        """
        with self._lock:
            return {
                "tasks": len(self._tasks),
                "completed": len(self._completed),
                "lost": len(self._tasks) - len(self._completed),
                "requeues": self.requeues,
                "duplicate_finishes": self.duplicate_finishes,
                "dispatched": dict(sorted(self.dispatched.items())),
            }
