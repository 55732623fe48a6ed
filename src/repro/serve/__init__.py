"""Resilient simulation service: the ``repro serve`` daemon.

A long-running HTTP/JSON service that accepts simulation jobs, executes
them on a supervised worker pool, and survives crashes: every queue
transition is write-ahead journaled, so a ``kill -9`` mid-sweep loses
nothing — on restart the daemon replays the journal and re-runs the
interrupted jobs exactly once.  Results are content-addressed in the
shared artifact cache, identical submissions dedup, and admission
control sheds load gracefully under pressure (bounded queue, priority
lanes, 429/503 rejection, SIGTERM drain).

Layers (one module each):

- :mod:`repro.serve.journal` — the crash-safe WAL + snapshot pair;
- :mod:`repro.serve.jobs` — the content-addressed job model and the
  submit-time params check;
- :mod:`repro.serve.queue` — the journaled priority queue with
  admission control, dedup and cache probing;
- :mod:`repro.serve.pool` — the supervised worker pool (fork-per-attempt
  through the shared attempt runner: timeouts, retries with
  deterministic jitter, hard cancellation, quarantine);
- :mod:`repro.serve.metrics` — the live ``/metrics`` registry;
- :mod:`repro.serve.server` — the daemon + stdlib HTTP layer;
- :mod:`repro.serve.bench` — the smoke gate, load generator and chaos
  benchmark (``BENCH_serve.json``).
"""

from repro.errors import JobCancelled, classify_failure
from repro.serve.jobs import PRIORITIES, Job, JobState, job_digest
from repro.serve.journal import JobJournal, JournalRecovery
from repro.serve.metrics import ServeMetrics
from repro.serve.pool import WorkerPool
from repro.serve.queue import AdmissionError, JobQueue, RecoveryReport
from repro.serve.server import ServeConfig, ServeDaemon

__all__ = [
    "AdmissionError",
    "Job",
    "JobCancelled",
    "JobJournal",
    "JobQueue",
    "JobState",
    "JournalRecovery",
    "PRIORITIES",
    "RecoveryReport",
    "ServeConfig",
    "ServeDaemon",
    "ServeMetrics",
    "WorkerPool",
    "classify_failure",
    "job_digest",
]
