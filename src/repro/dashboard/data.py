"""Dashboard data sources: one object behind every JSON endpoint.

:class:`DashboardData` assembles the four views' payloads from the
observability layer's existing artifacts:

- the **timeline** view serves the schema-checked Chrome-trace JSON
  (:meth:`~repro.obs.timeline.TimelineModel.chrome_trace`), either
  loaded from a ``repro trace --out`` file or produced at startup by
  :func:`~repro.obs.timeline.traced_run`, the run ``repro trace --out``
  makes — the same export Perfetto opens, so the dashboard and
  Perfetto stay consistent by construction;
- the **events** view serves the structured event stream (a PR-5 JSONL
  file or the live tracer) with kind filtering and per-thread
  drill-down, cross-checked against :func:`repro.obs.replay_counters`;
- the **manifests** view serves :func:`repro.obs.read_manifests` over
  telemetry directories discovered by
  :func:`repro.obs.manifest.find_telemetry`;
- the **metrics** view serves the registry snapshot (plus histogram
  p50/p90/p99 from :meth:`~repro.obs.registry.Histogram.quantile`) or,
  in ``--attach`` mode, the Prometheus exposition polled from a running
  ``repro serve`` daemon's ``/metrics``.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.events import SimEvent, events_from_jsonl, replay_counters
from repro.obs.manifest import find_telemetry, read_manifests
from repro.obs.registry import Histogram, MetricsRegistry, events_metrics
from repro.obs.timeline import traced_run

__all__ = [
    "DashboardData",
    "histogram_quantiles",
    "parse_prometheus",
    "resolve_attach",
]

#: Quantiles the metrics panel's latency tiles show.
QUANTILES: Dict[str, float] = {"p50": 0.5, "p90": 0.9, "p99": 0.99}

#: One Prometheus text-exposition sample line.
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)\s*$"
)
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> List[Dict[str, Any]]:
    """Parse Prometheus text exposition into sample dicts.

    Covers the subset :meth:`~repro.obs.registry.MetricsRegistry.
    to_prometheus` (and therefore the serve daemon's ``/metrics``)
    emits: ``name{label="value",...} number`` lines plus ``# HELP`` /
    ``# TYPE`` comments, which are skipped.

    Args:
        text: The exposition body.

    Returns:
        ``[{"name", "labels", "value"}, ...]`` in input order;
        unparseable lines are dropped rather than raised on.
    """
    samples: List[Dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            continue
        name, raw_labels, raw_value = match.groups()
        try:
            value = float(raw_value)
        except ValueError:
            continue
        labels = {
            key: val.replace('\\"', '"').replace("\\n", "\n")
            .replace("\\\\", "\\")
            for key, val in _PROM_LABEL.findall(raw_labels or "")
        }
        samples.append({"name": name, "labels": labels, "value": value})
    return samples


def histogram_quantiles(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Return per-series p50/p90/p99 estimates for every histogram.

    Args:
        registry: Registry whose :class:`~repro.obs.registry.Histogram`
            metrics are summarised.

    Returns:
        One entry per labelled series:
        ``{"name", "labels", "count", "sum", "p50", "p90", "p99"}``.
    """
    tiles: List[Dict[str, Any]] = []
    for metric in registry:
        if not isinstance(metric, Histogram):
            continue
        series_keys = {
            tuple(items for items in key if items[0] != "__stat__")
            for key, _value in metric.samples()
        }
        for key in sorted(series_keys):
            labels = dict(key)
            entry: Dict[str, Any] = {
                "name": metric.name,
                "labels": labels,
                "count": metric.count(**labels),
                "sum": metric.sum(**labels),
            }
            for tag, q in QUANTILES.items():
                entry[tag] = metric.quantile(q, **labels)
            tiles.append(entry)
    return tiles


def resolve_attach(target: Union[str, Path]) -> str:
    """Resolve an ``--attach`` target to a serve daemon's base URL.

    Args:
        target: A serve state directory (holding ``endpoint.json``),
            an ``endpoint.json`` path, a ``host:port`` pair, or a full
            ``http://`` URL.

    Returns:
        The daemon's base URL (no trailing slash).

    Raises:
        ValueError: when the target resolves to nothing usable.
    """
    text = str(target)
    if text.startswith("http://") or text.startswith("https://"):
        return text.rstrip("/")
    path = Path(text)
    if path.is_dir():
        path = path / "endpoint.json"
    if path.is_file():
        try:
            data = json.loads(path.read_text())
            return f"http://{data['host']}:{int(data['port'])}"
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad endpoint file {path}: {exc}") from exc
    if ":" in text and not text.endswith(":"):
        host, port = text.rsplit(":", 1)
        if port.isdigit():
            return f"http://{host}:{int(port)}"
    raise ValueError(
        f"--attach target {text!r} is neither a serve state dir, an "
        "endpoint.json, host:port, nor a URL"
    )


class DashboardData:
    """The dashboard's data sources, one instance per app.

    Args:
        trace: Chrome-trace JSON object served by the timeline view.
        events: Structured event stream served by the inspector.
        telemetry: Telemetry directories for the manifest browser.
        registry: Metrics registry behind the local metrics panel
            (ignored by :meth:`metrics_payload` in attach mode).
        attach_url: Base URL of a running serve daemon whose
            ``/metrics`` feeds the metrics panel instead.
        meta: Run-identity metadata shown in the page header.
    """

    def __init__(
        self,
        trace: Dict[str, Any],
        events: Sequence[SimEvent] = (),
        telemetry: Sequence[Union[str, Path]] = (),
        registry: Optional[MetricsRegistry] = None,
        attach_url: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace = trace
        self.events = list(events)
        self.telemetry = [Path(d) for d in telemetry]
        self.registry = registry or MetricsRegistry()
        self.attach_url = attach_url
        self.meta = dict(meta or {})

    # ------------------------------------------------------------------
    # Assembly.
    # ------------------------------------------------------------------

    @classmethod
    def collect(
        cls,
        workload: str = "compress",
        scale: float = 0.25,
        policy: str = "profile",
        value_predictor: str = "stride",
        thread_units: int = 8,
        max_steps: Optional[int] = None,
        trace_path: Optional[str] = None,
        events_path: Optional[str] = None,
        telemetry: Optional[Sequence[str]] = None,
        attach: Optional[str] = None,
    ) -> "DashboardData":
        """Assemble the data sources from CLI-level knobs.

        With ``trace_path`` the Chrome trace (and optionally the JSONL
        event stream) is loaded from disk; otherwise one traced
        simulation of ``workload`` runs at startup and fills the trace,
        events and metrics registry in one pass.  Telemetry directories
        default to :func:`~repro.obs.manifest.find_telemetry` discovery
        under the working directory.

        Returns:
            The assembled :class:`DashboardData`.

        Raises:
            ValueError: on an unreadable trace/events file or a bad
                ``attach`` target.
        """
        attach_url = resolve_attach(attach) if attach else None
        registry: Optional[MetricsRegistry] = None
        events: List[SimEvent] = []
        meta: Dict[str, Any]
        if trace_path is not None:
            try:
                trace = json.loads(Path(trace_path).read_text())
            except (OSError, ValueError) as exc:
                raise ValueError(
                    f"cannot load trace {trace_path}: {exc}"
                ) from exc
            if events_path is not None:
                try:
                    events = events_from_jsonl(
                        Path(events_path).read_text()
                    )
                except (OSError, ValueError, KeyError) as exc:
                    raise ValueError(
                        f"cannot load events {events_path}: {exc}"
                    ) from exc
            meta = dict(trace.get("otherData", {}))
            meta.setdefault("source", trace_path)
            if events:
                registry = events_metrics(events, **_event_labels(meta))
        else:
            from repro.cmt import ProcessorConfig
            from repro.experiments.framework import policy_builder
            from repro.workloads import load_trace

            workload_trace = load_trace(workload, scale, max_steps=max_steps)
            config = ProcessorConfig(
                num_thread_units=thread_units,
                value_predictor=value_predictor,
                collect_timeline=True,
            )
            run = traced_run(
                workload_trace, policy_builder(policy)(workload_trace),
                config, workload=workload, policy=policy, scale=scale,
            )
            trace = run.chrome_trace()
            events = run.events
            registry = run.metrics()
            meta = run.meta
        dirs: Sequence[Union[str, Path]]
        if telemetry:
            dirs = list(telemetry)
        else:
            dirs = find_telemetry(".")
        return cls(
            trace,
            events=events,
            telemetry=dirs,
            registry=registry,
            attach_url=attach_url,
            meta=meta,
        )

    # ------------------------------------------------------------------
    # Per-view payloads (the JSON API responses).
    # ------------------------------------------------------------------

    def trace_payload(self) -> Dict[str, Any]:
        """The timeline view's payload.

        Returns:
            The Chrome-trace JSON object itself.
        """
        return self.trace

    def events_payload(
        self,
        kind: Optional[str] = None,
        thread: Optional[int] = None,
        limit: int = 2000,
    ) -> Dict[str, Any]:
        """The event inspector's payload.

        Args:
            kind: Keep only this event kind (prefix match on the dotted
                taxonomy: ``thread`` matches ``thread.spawn`` ...).
            thread: Keep only this thread's events.
            limit: Cap on returned event objects (counts and replay
                cover the *unfiltered* stream regardless).

        Returns:
            ``{"total", "counts", "replay", "filtered", "events"}``
            where ``replay`` is the
            :func:`~repro.obs.events.replay_counters` cross-check.
        """
        selected = self.events
        if kind:
            selected = [
                e for e in selected
                if e.kind == kind or e.kind.startswith(kind + ".")
            ]
        if thread is not None:
            selected = [e for e in selected if e.thread == thread]
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {
            "total": len(self.events),
            "counts": counts,
            "replay": replay_counters(self.events),
            "filtered": len(selected),
            "events": [e.to_dict() for e in selected[:limit]],
        }

    def manifests_payload(self) -> Dict[str, Any]:
        """The sweep/manifest browser's payload.

        Returns:
            ``{"dirs": [{"dir", "manifests", "files"}, ...]}`` —
            ``manifests`` is :func:`~repro.obs.read_manifests` output
            and ``files`` lists the directory's non-manifest artifacts
            (figure renders, reports) by name and size.
        """
        entries: List[Dict[str, Any]] = []
        for directory in self.telemetry:
            manifests = read_manifests(directory)
            files: List[Dict[str, Any]] = []
            if directory.is_dir():
                for path in sorted(directory.iterdir()):
                    if path.is_file() and not path.name.endswith(
                        ".manifest.json"
                    ):
                        files.append(
                            {"name": path.name,
                             "bytes": path.stat().st_size}
                        )
            entries.append(
                {
                    "dir": str(directory),
                    "manifests": manifests,
                    "files": files,
                }
            )
        return {"dirs": entries}

    def metrics_payload(self) -> Dict[str, Any]:
        """The metrics panel's payload (local snapshot or attach poll).

        Returns:
            Local mode: ``{"source": "local", "snapshot", "quantiles"}``
            with histogram p50/p90/p99 tiles.  Attach mode:
            ``{"source": "attached", "endpoint", "samples"}`` parsed
            from the daemon's ``/metrics`` exposition (an ``"error"``
            key replaces ``samples`` when the daemon is unreachable).
        """
        if self.attach_url is not None:
            url = self.attach_url + "/metrics"
            try:
                with urllib.request.urlopen(url, timeout=5.0) as resp:
                    text = resp.read().decode("utf-8")
            except (urllib.error.URLError, OSError) as exc:
                return {
                    "source": "attached",
                    "endpoint": self.attach_url,
                    "error": str(exc),
                }
            return {
                "source": "attached",
                "endpoint": self.attach_url,
                "samples": parse_prometheus(text),
            }
        return {
            "source": "local",
            "snapshot": self.registry.snapshot().to_dict(),
            "quantiles": histogram_quantiles(self.registry),
        }

    def bootstrap(self) -> Dict[str, Any]:
        """Assemble the snapshot bundle.

        Returns:
            Every view's payload in one object
            (``meta``/``trace``/``events``/``manifests``/``metrics``).
        """
        return {
            "meta": self.meta,
            "trace": self.trace_payload(),
            "events": self.events_payload(),
            "manifests": self.manifests_payload(),
            "metrics": self.metrics_payload(),
        }


def _event_labels(meta: Dict[str, Any]) -> Dict[str, str]:
    """Registry labels from trace metadata (identity keys only)."""
    return {
        key: str(meta[key])
        for key in ("workload", "policy", "vp")
        if key in meta
    }
