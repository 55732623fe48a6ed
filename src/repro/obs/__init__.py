"""Observability layer: structured events, metrics, timelines, manifests.

Four cooperating pieces (see ``docs/observability.md``):

- :mod:`repro.obs.events` — typed simulation events with a null-object
  disabled path (:data:`NULL_TRACER`), JSONL round-trip, and
  :func:`replay_counters` for stream-vs-aggregate cross-checks;
- :mod:`repro.obs.registry` — labelled counters/gauges/histograms with
  snapshot/diff semantics, Prometheus text exposition and JSONL export,
  plus collectors bridging the repository's existing stats objects;
- :mod:`repro.obs.timeline` — the per-TU thread-lifetime data model
  shared by the ASCII Gantt view and the Chrome trace-event / Perfetto
  exporter, and :func:`traced_run`, the one traced simulation of a
  point, whose result builds both the trace and the metrics;
- :mod:`repro.obs.manifest` — per-run and per-sweep provenance records
  (config digest, seed, cache stats, fault plan, durations).
"""

from repro.obs.events import (
    BULK_KINDS,
    EVENT_KINDS,
    EventTracer,
    NULL_TRACER,
    NullTracer,
    SimEvent,
    events_from_jsonl,
    replay_counters,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_digest,
    find_telemetry,
    read_manifests,
    write_sweep_manifest,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    SNAPSHOT_SCHEMA_VERSION,
    events_metrics,
    sim_metrics,
)
from repro.obs.timeline import (
    CHROME_TRACE_SCHEMA_VERSION,
    Lifetime,
    TimelineModel,
    TracedRun,
    traced_run,
    validate_chrome_trace,
)

__all__ = [
    "BULK_KINDS",
    "EVENT_KINDS",
    "EventTracer",
    "NULL_TRACER",
    "NullTracer",
    "SimEvent",
    "events_from_jsonl",
    "replay_counters",
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "config_digest",
    "find_telemetry",
    "read_manifests",
    "write_sweep_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SNAPSHOT_SCHEMA_VERSION",
    "events_metrics",
    "sim_metrics",
    "CHROME_TRACE_SCHEMA_VERSION",
    "Lifetime",
    "TimelineModel",
    "TracedRun",
    "traced_run",
    "validate_chrome_trace",
]
