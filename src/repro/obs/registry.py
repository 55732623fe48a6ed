"""Labelled metrics registry with Prometheus and JSONL exposition.

One registry unifies the repository's telemetry —
:class:`~repro.cmt.stats.SimulationStats`, the structured event stream,
the serve daemon's job counters and the distributed coordinator's fleet
counters — behind three metric types with label sets and snapshot/delta
semantics:

- :class:`Counter` — monotonically increasing totals (``*_total``);
- :class:`Gauge` — point-in-time values (rates, sizes);
- :class:`Histogram` — bucketed distributions (thread sizes, wall
  times) with Prometheus ``_bucket``/``_sum``/``_count`` exposition.

Naming convention (documented in ``docs/observability.md``): metric
names are ``repro_<subsystem>_<quantity>[_<unit>]``, counters end in
``_total``, and label values carry run identity (workload, policy,
predictor) so two runs can share one exposition stream.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Version of the snapshot JSON shape (bump on breaking changes).
SNAPSHOT_SCHEMA_VERSION = 1

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (powers of two — thread sizes and cycle
#: counts both span several orders of magnitude).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelItems:
    for name in labels:
        if not _LABEL.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Metric:
    """Base of the three metric types: a name, help text, and samples."""

    type = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    def samples(self) -> List[Tuple[LabelItems, float]]:
        """Return ``(label items, value)`` pairs, sorted by labels."""
        raise NotImplementedError

    def expose(self) -> List[str]:
        """Return the metric's Prometheus text-exposition lines."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.type}")
        for items, value in self.samples():
            lines.append(f"{self.name}{_format_labels(items)} {_render(value)}")
        return lines


def _render(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter(Metric):
    """Monotonically increasing total, optionally labelled."""

    type = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelItems, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled sample."""
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """Return the labelled sample's current value (0 if unseen)."""
        return self._values.get(_label_key(labels), 0)

    def samples(self) -> List[Tuple[LabelItems, float]]:
        return sorted(self._values.items())


class Gauge(Metric):
    """Point-in-time value, optionally labelled."""

    type = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelItems, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled sample to ``value``."""
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` (may be negative) to the labelled sample."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """Return the labelled sample's current value (0 if unseen)."""
        return self._values.get(_label_key(labels), 0)

    def samples(self) -> List[Tuple[LabelItems, float]]:
        return sorted(self._values.items())


class Histogram(Metric):
    """Bucketed distribution with cumulative Prometheus exposition."""

    type = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.bounds = bounds
        #: labels -> (per-bound counts, sum, count)
        self._series: Dict[LabelItems, Tuple[List[int], float, int]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation in the labelled series."""
        key = _label_key(labels)
        counts, total, n = self._series.get(
            key, ([0] * len(self.bounds), 0.0, 0)
        )
        index = bisect_left(self.bounds, value)
        if index < len(counts):
            counts[index] += 1
        self._series[key] = (counts, total + value, n + 1)

    def count(self, **labels: Any) -> int:
        """Return the labelled series' observation count."""
        series = self._series.get(_label_key(labels))
        return series[2] if series else 0

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Estimate the q-quantile of the labelled series.

        Linear interpolation over the bucket bounds, the same estimate
        ``histogram_quantile`` computes from the Prometheus exposition —
        which is what lets dashboard latency tiles show p50/p99 without
        re-parsing exposition text.  The first bucket interpolates from
        a lower edge of 0; observations beyond the last bound (the
        implicit ``+Inf`` bucket) clamp to the last bound, since there
        is no finite upper edge to interpolate towards.

        Args:
            q: Quantile in [0, 1] (0.5 = median, 0.99 = p99).
            **labels: The series to estimate.

        Returns:
            The estimated value, or None when the series is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        series = self._series.get(_label_key(labels))
        if series is None or series[2] == 0:
            return None
        counts, _total, n = series
        rank = q * n
        running = 0
        lower = 0.0
        for bound, bucket in zip(self.bounds, counts):
            if bucket and running + bucket >= rank:
                fraction = max(rank - running, 0.0) / bucket
                return lower + (bound - lower) * fraction
            running += bucket
            lower = bound
        return self.bounds[-1]

    def sum(self, **labels: Any) -> float:
        """Return the labelled series' observation sum."""
        series = self._series.get(_label_key(labels))
        return series[1] if series else 0.0

    def samples(self) -> List[Tuple[LabelItems, float]]:
        # Snapshot view: the per-label count and sum (bucket detail is
        # exposition-only; snapshots diff on the aggregate).
        result = []
        for key, (_counts, total, n) in sorted(self._series.items()):
            result.append((key + (("__stat__", "count"),), float(n)))
            result.append((key + (("__stat__", "sum"),), total))
        return result

    def expose(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} histogram")
        for key, (counts, total, n) in sorted(self._series.items()):
            running = 0
            for bound, bucket in zip(self.bounds, counts):
                running += bucket
                items = key + (("le", _render(bound)),)
                lines.append(
                    f"{self.name}_bucket{_format_labels(items)} {running}"
                )
            items = key + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_format_labels(items)} {n}")
            lines.append(
                f"{self.name}_sum{_format_labels(key)} {_render(total)}"
            )
            lines.append(f"{self.name}_count{_format_labels(key)} {n}")
        return lines


class MetricsSnapshot:
    """Immutable point-in-time view of a registry, diffable and JSON-able."""

    def __init__(self, data: Dict[str, Dict[str, Any]]):
        self._data = data

    @property
    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """The raw ``{metric name: {type, help, samples}}`` mapping."""
        return self._data

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON view (``schema_version`` + metrics)."""
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "metrics": self._data,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        """Rebuild a snapshot from its :meth:`to_dict` encoding."""
        return cls(dict(data.get("metrics", {})))

    def flatten(self) -> Dict[str, float]:
        """Return ``{"name{a=\"b\"}": value}`` over every sample."""
        flat: Dict[str, float] = {}
        for name, info in self._data.items():
            for sample in info["samples"]:
                items = tuple(sorted(sample["labels"].items()))
                flat[name + _format_labels(items)] = sample["value"]
        return flat

    def diff(self, other: "MetricsSnapshot") -> List[Dict[str, Any]]:
        """Return the sample-level changes from ``self`` to ``other``.

        Each entry has ``key`` (flattened sample name), ``before`` and
        ``after`` (None when the sample only exists on one side), and
        ``delta`` (when both sides are present).
        """
        before = self.flatten()
        after = other.flatten()
        changes: List[Dict[str, Any]] = []
        for key in sorted(set(before) | set(after)):
            a, b = before.get(key), after.get(key)
            if a == b:
                continue
            entry: Dict[str, Any] = {"key": key, "before": a, "after": b}
            if a is not None and b is not None:
                entry["delta"] = b - a
            changes.append(entry)
        return changes


class MetricsRegistry:
    """A named collection of metrics with unified export surfaces."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def _register(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.type}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Register (or fetch) the named :class:`Counter`."""
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Register (or fetch) the named :class:`Gauge`."""
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Register (or fetch) the named :class:`Histogram`."""
        return self._register(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    # Export surfaces.
    # ------------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Return the registry in Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self:
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_jsonl(self) -> str:
        """Return one JSON object per sample (JSON Lines)."""
        lines = []
        for metric in self:
            for items, value in metric.samples():
                lines.append(
                    json.dumps(
                        {
                            "name": metric.name,
                            "type": metric.type,
                            "labels": dict(items),
                            "value": value,
                        },
                        sort_keys=True,
                    )
                )
        return "\n".join(lines)

    def snapshot(self) -> MetricsSnapshot:
        """Return an immutable :class:`MetricsSnapshot` of every sample."""
        data: Dict[str, Dict[str, Any]] = {}
        for metric in self:
            data[metric.name] = {
                "type": metric.type,
                "help": metric.help,
                "samples": [
                    {"labels": dict(items), "value": value}
                    for items, value in metric.samples()
                ],
            }
        return MetricsSnapshot(data)


# ----------------------------------------------------------------------
# Collectors: map the repository's existing stats objects into metrics.
# ----------------------------------------------------------------------

#: SimulationStats counter -> (metric name, help).
_SIM_COUNTERS = {
    "cycles": ("repro_sim_cycles_total", "Simulated cycles"),
    "instructions": ("repro_sim_instructions_total", "Committed instructions"),
    "threads_committed": ("repro_sim_threads_committed_total",
                          "Threads retired in program order"),
    "spawns": ("repro_sim_spawns_total", "Successful thread spawns"),
    "control_misspeculations": ("repro_sim_spawn_ghosts_total",
                                "Spawns whose CQIP was never reached"),
    "spawns_denied_no_tu": ("repro_sim_spawns_denied_total",
                            "Spawns denied for lack of a free thread unit"),
    "spawns_skipped_existing": ("repro_sim_spawns_skipped_total",
                                "Spawns skipped (successor already started)"),
    "spawns_rejected_order": ("repro_sim_spawns_rejected_order_total",
                              "Spawns rejected by the ordering check"),
    "pairs_removed_alone": ("repro_sim_pairs_removed_alone_total",
                            "Pairs removed by the alone-cycles policy"),
    "pairs_removed_min_size": ("repro_sim_pairs_removed_min_size_total",
                               "Pairs removed by the min-thread-size policy"),
    "value_predictions": ("repro_sim_value_predictions_total",
                          "Live-in value predictions made"),
    "value_hits": ("repro_sim_value_hits_total",
                   "Live-in value predictions that were correct"),
    "branch_predictions": ("repro_sim_branch_predictions_total",
                           "Conditional-branch predictions made"),
    "branch_hits": ("repro_sim_branch_hits_total",
                    "Conditional-branch predictions that were correct"),
    "cache_accesses": ("repro_sim_cache_accesses_total", "L1 accesses"),
    "cache_misses": ("repro_sim_cache_misses_total", "L1 misses"),
    "reassign_fallbacks": ("repro_sim_reassign_fallbacks_total",
                           "Spawns served by a non-best CQIP"),
    "faults_injected": ("repro_sim_faults_injected_total",
                        "Fault events that fired"),
    "tu_blackouts": ("repro_sim_tu_blackouts_total",
                     "Blackout windows a running thread hit"),
    "threads_degraded": ("repro_sim_threads_degraded_total",
                         "Threads squashed and gracefully degraded"),
    "spawns_dropped": ("repro_sim_spawns_dropped_total",
                       "Spawn requests abandoned after retries"),
    "spawns_retried": ("repro_sim_spawn_retries_total",
                       "Retry attempts of eventually-granted spawns"),
    "liveins_corrupted": ("repro_sim_liveins_corrupted_total",
                          "Predicted live-ins corrupted in flight"),
    "forward_delays": ("repro_sim_forward_delays_total",
                       "Cross-thread forwards with an injected delay"),
    "fault_cycles_lost": ("repro_sim_fault_cycles_lost_total",
                          "Cycles lost to squashed work and dark units"),
}

#: SimulationStats derived rate -> (metric name, help).
_SIM_GAUGES = {
    "ipc": ("repro_sim_ipc", "Instructions per cycle"),
    "avg_active_threads": ("repro_sim_active_threads_avg",
                           "Time-weighted average active threads (Fig. 4)"),
    "value_hit_rate": ("repro_sim_value_hit_rate",
                       "Live-in value-prediction hit rate (Fig. 9a)"),
    "branch_hit_rate": ("repro_sim_branch_hit_rate",
                        "Branch-prediction hit rate"),
    "cache_miss_rate": ("repro_sim_cache_miss_rate", "L1 miss rate"),
}


def sim_metrics(stats, registry: Optional[MetricsRegistry] = None,
                **labels: Any) -> MetricsRegistry:
    """Record a :class:`~repro.cmt.stats.SimulationStats` into a registry.

    Args:
        stats: The run's statistics.
        registry: Registry to record into (a fresh one when None).
        **labels: Run-identity labels stamped on every sample
            (e.g. ``workload="gcc"``, ``policy="profile"``).

    Returns:
        The registry, for chaining.
    """
    registry = registry or MetricsRegistry()
    for attr, (name, help_text) in _SIM_COUNTERS.items():
        registry.counter(name, help_text).inc(getattr(stats, attr), **labels)
    for attr, (name, help_text) in _SIM_GAUGES.items():
        registry.gauge(name, help_text).set(getattr(stats, attr), **labels)
    sizes = registry.histogram(
        "repro_sim_thread_size_insts",
        "Committed-thread sizes in instructions (Fig. 7)",
    )
    for size in stats.thread_sizes:
        sizes.observe(size, **labels)
    return registry


def events_metrics(events: Iterable, registry: Optional[MetricsRegistry] = None,
                   **labels: Any) -> MetricsRegistry:
    """Record an event stream's per-kind totals into a registry.

    Args:
        events: Iterable of :class:`~repro.obs.events.SimEvent`.
        registry: Registry to record into (a fresh one when None).
        **labels: Labels stamped on every sample (``kind`` is added).

    Returns:
        The registry, for chaining.
    """
    registry = registry or MetricsRegistry()
    counter = registry.counter(
        "repro_events_total", "Structured simulation events by kind"
    )
    for event in events:
        counter.inc(1, kind=event.kind, **labels)
    return registry
