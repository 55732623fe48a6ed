"""Live service metrics of the serve daemon (``/metrics`` endpoint).

One :class:`~repro.obs.registry.MetricsRegistry` instance is shared by
the queue, the worker pool and the HTTP server; ``GET /metrics`` serves
its Prometheus text exposition straight from process memory, so the
numbers are live — no files, no scrape-side aggregation.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["ServeMetrics"]


class ServeMetrics:
    """Typed handles on every serve metric, bound to one registry.

    Args:
        registry: Registry to register into (a fresh one when None).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        reg = self.registry
        self.submitted: Counter = reg.counter(
            "repro_serve_jobs_submitted_total",
            "Jobs admitted to the queue, by priority lane",
        )
        self.completed: Counter = reg.counter(
            "repro_serve_jobs_completed_total",
            "Jobs reaching a terminal state, by status",
        )
        self.rejected: Counter = reg.counter(
            "repro_serve_jobs_rejected_total",
            "Submissions refused by admission control, by reason",
        )
        self.deduped: Counter = reg.counter(
            "repro_serve_jobs_deduped_total",
            "Submissions coalesced onto an existing identical job",
        )
        self.cache_served: Counter = reg.counter(
            "repro_serve_cache_served_total",
            "Jobs answered from the artifact cache without executing",
        )
        self.retries: Counter = reg.counter(
            "repro_serve_job_retry_attempts_total",
            "Extra execution attempts beyond each job's first",
        )
        self.requeued: Counter = reg.counter(
            "repro_serve_jobs_requeued_total",
            "Jobs re-queued by crash recovery (WAL replay)",
        )
        self.worker_starts: Counter = reg.counter(
            "repro_serve_worker_starts_total",
            "Job processes the worker pool started (one per worker, "
            "plus one after each timeout, cancel or death)",
        )
        self.queue_depth: Gauge = reg.gauge(
            "repro_serve_queue_depth",
            "Jobs currently queued, by priority lane",
        )
        self.running: Gauge = reg.gauge(
            "repro_serve_jobs_running",
            "Jobs currently executing on a worker",
        )
        self.draining: Gauge = reg.gauge(
            "repro_serve_draining",
            "1 while the daemon is draining (rejecting submissions)",
        )
        self.job_seconds: Histogram = reg.histogram(
            "repro_serve_job_seconds",
            "Per-job wall time in seconds, by runner",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10,
                     30, 60, 120, 300),
        )

    def to_prometheus(self) -> str:
        """Return the live Prometheus text exposition."""
        return self.registry.to_prometheus()
