"""Timeline data model and Chrome trace-event / Perfetto export.

The simulator collects per-thread :class:`~repro.cmt.stats.ThreadRecord`
lifetimes when ``ProcessorConfig.collect_timeline`` is on.  This module
lifts those records (plus, optionally, a structured event stream) into a
:class:`TimelineModel` that both the ASCII Gantt renderer
(:func:`repro.cmt.gantt.render_gantt`) and the Chrome trace-event JSON
exporter consume, so the terminal view and the Perfetto view are two
projections of one data structure.

The Chrome trace-event format reference:
https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
We emit ``"X"`` (complete) events for thread execute/wait slices, ``"M"``
(metadata) events naming processes/threads, and ``"i"`` (instant) events
for point occurrences such as squashes and spawn drops.  Cycles map 1:1
to microseconds (``ts``/``dur`` are expressed in us), which keeps
Perfetto's time axis readable without a scale factor.

:func:`traced_run` is the one way to run a traced simulation point:
``repro trace --out``, ``repro metrics dump`` and the dashboard's startup
simulation all call it, and build the Chrome trace and the metrics
registry from the :class:`TracedRun` it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.events import BULK_KINDS, EventTracer, SimEvent
from repro.obs.registry import MetricsRegistry, events_metrics, sim_metrics

if TYPE_CHECKING:
    from repro.cmt.config import ProcessorConfig
    from repro.cmt.stats import SimulationStats
    from repro.exec.trace import Trace
    from repro.spawning.pairs import SpawnPairSet

#: Version of the emitted Chrome-trace shape, stamped into the trace's
#: ``metadata`` object.  Version 1 (implicit) predates the stamp;
#: version 2 added ``metadata.schema_version`` itself.  Bump on any
#: change a consumer (the dashboard, Perfetto tooling, the CI smoke
#: step) could trip over.
CHROME_TRACE_SCHEMA_VERSION = 2

#: Chrome trace-event phase codes used by the exporter.
_PH_COMPLETE = "X"
_PH_METADATA = "M"
_PH_INSTANT = "i"


@dataclass(frozen=True)
class Lifetime:
    """One thread's occupancy of a thread unit.

    ``start``..``finish`` is the execute slice; ``finish``..``commit`` is
    the wait-for-in-order-commit slice (the imbalance the paper's removal
    policies target).
    """

    tu: int
    start: int
    finish: int
    commit: int
    size: int
    pair: Optional[Sequence[int]] = None
    livein_hits: int = 0
    livein_misses: int = 0

    @property
    def wait(self) -> int:
        """Cycles spent finished but waiting for the commit slot."""
        return self.commit - self.finish


class TimelineModel:
    """Per-TU thread lifetimes plus optional instant markers.

    Raises:
        ValueError: if constructed with no lifetimes — the upstream run
            forgot ``collect_timeline=True`` (mirrors the historical
            :func:`render_gantt` behaviour).
    """

    def __init__(self, lifetimes: Sequence[Lifetime], num_tus: int,
                 markers: Sequence[SimEvent] = (),
                 meta: Optional[Dict[str, Any]] = None):
        if not lifetimes:
            raise ValueError(
                "no timeline collected; simulate with collect_timeline=True"
            )
        self.lifetimes = list(lifetimes)
        self.num_tus = num_tus
        self.markers = [m for m in markers if m.kind not in BULK_KINDS]
        self.meta = dict(meta or {})

    @classmethod
    def from_stats(cls, stats, num_tus: int,
                   events: Iterable[SimEvent] = (),
                   meta: Optional[Dict[str, Any]] = None) -> "TimelineModel":
        """Build the model from a timeline-enabled run's statistics.

        Args:
            stats: A :class:`~repro.cmt.stats.SimulationStats` whose
                ``timeline`` is populated.
            num_tus: Number of thread units in the simulated processor.
            events: Optional structured event stream; non-bulk events
                become instant markers on the exported trace.
            meta: Run-identity metadata recorded on the model (workload,
                policy, predictor, ...).
        """
        lifetimes = [
            Lifetime(
                tu=rec.tu,
                start=rec.start_cycle,
                finish=rec.finish_cycle,
                commit=rec.commit_cycle,
                size=rec.size,
                pair=rec.pair,
                livein_hits=rec.livein_hits,
                livein_misses=rec.livein_misses,
            )
            for rec in stats.timeline
        ]
        return cls(lifetimes, num_tus, markers=list(events), meta=meta)

    @property
    def total_cycles(self) -> int:
        """Last commit cycle across every lifetime (at least 1)."""
        return max(life.commit for life in self.lifetimes) or 1

    def lanes(self) -> Dict[int, List[Lifetime]]:
        """Return lifetimes grouped by thread unit, sorted by start."""
        result: Dict[int, List[Lifetime]] = {
            tu: [] for tu in range(self.num_tus)
        }
        for lifetime in self.lifetimes:
            result.setdefault(lifetime.tu, []).append(lifetime)
        for lane in result.values():
            lane.sort(key=lambda life: (life.start, life.commit))
        return result

    def commit_waits(self) -> List[int]:
        """Per-thread commit-wait cycles, in timeline order."""
        return [life.wait for life in self.lifetimes]

    # ------------------------------------------------------------------
    # Chrome trace-event export.
    # ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """Return the timeline as a Chrome trace-event JSON object.

        Open the serialised file in https://ui.perfetto.dev (or
        ``chrome://tracing``): each thread unit is a track, execute and
        commit-wait slices nest on it, and squash/drop/blackout markers
        appear as instants.
        """
        events: List[Dict[str, Any]] = [
            {
                "ph": _PH_METADATA,
                "pid": 1,
                "tid": 0,
                "name": "process_name",
                "args": {"name": self.meta.get("workload", "simulation")},
            }
        ]
        for tu in range(self.num_tus):
            events.append(
                {
                    "ph": _PH_METADATA,
                    "pid": 1,
                    "tid": tu + 1,
                    "name": "thread_name",
                    "args": {"name": f"TU{tu:02d}"},
                }
            )
        for index, lifetime in enumerate(self.lifetimes):
            tid = lifetime.tu + 1
            args = {
                "thread": index,
                "size_insts": lifetime.size,
                "pair": list(lifetime.pair) if lifetime.pair else None,
                "livein_hits": lifetime.livein_hits,
                "livein_misses": lifetime.livein_misses,
            }
            label = (
                f"T{index} sp={lifetime.pair[0]:#x}"
                if lifetime.pair
                else f"T{index} (root)"
            )
            events.append(
                {
                    "ph": _PH_COMPLETE,
                    "pid": 1,
                    "tid": tid,
                    "name": label,
                    "cat": "execute",
                    "ts": lifetime.start,
                    "dur": max(lifetime.finish - lifetime.start, 1),
                    "args": args,
                }
            )
            if lifetime.commit > lifetime.finish:
                events.append(
                    {
                        "ph": _PH_COMPLETE,
                        "pid": 1,
                        "tid": tid,
                        "name": f"T{index} commit-wait",
                        "cat": "commit_wait",
                        "ts": lifetime.finish,
                        "dur": lifetime.commit - lifetime.finish,
                        "args": {"thread": index},
                    }
                )
        for marker in self.markers:
            events.append(
                {
                    "ph": _PH_INSTANT,
                    "pid": 1,
                    "tid": (marker.tu + 1) if marker.tu >= 0 else 0,
                    "name": marker.kind,
                    "cat": marker.kind.split(".", 1)[0],
                    "ts": max(marker.cycle, 0),
                    "s": "t" if marker.tu >= 0 else "p",
                    "args": dict(marker.attrs),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(self.meta),
            "metadata": {"schema_version": CHROME_TRACE_SCHEMA_VERSION},
        }


@dataclass
class TracedRun:
    """One traced simulation point, as :func:`traced_run` returns it.

    Attributes:
        stats: The run's :class:`~repro.cmt.stats.SimulationStats`.
        tracer: The tracer that recorded the run's event stream.
        seconds: Wall time of ``simulate`` alone.
        meta: Run identity: ``workload``, ``policy``, ``vp``, ``scale``
            and ``tus``.
    """

    stats: SimulationStats
    tracer: EventTracer
    seconds: float
    meta: Dict[str, Any]

    @property
    def events(self) -> List[SimEvent]:
        """The structured event stream of the run."""
        return self.tracer.events

    @property
    def labels(self) -> Dict[str, Any]:
        """The metric labels: ``workload``, ``policy`` and ``vp``."""
        return {key: self.meta[key] for key in ("workload", "policy", "vp")}

    def chrome_trace(self) -> Dict[str, Any]:
        """Return the run as Chrome trace-event JSON.

        The run must have been simulated with ``collect_timeline=True``.
        """
        model = TimelineModel.from_stats(
            self.stats, self.meta["tus"], events=self.events, meta=self.meta
        )
        return model.chrome_trace()

    def metrics(self) -> MetricsRegistry:
        """Return the run's ``sim_metrics`` plus ``events_metrics``."""
        registry = sim_metrics(self.stats, **self.labels)
        return events_metrics(self.events, registry, **self.labels)


def traced_run(
    trace: Trace,
    pairs: SpawnPairSet,
    config: ProcessorConfig,
    workload: str,
    policy: str,
    scale: float,
) -> TracedRun:
    """Simulate one point under a fresh event tracer.

    Args:
        trace: Sequential :class:`~repro.exec.Trace` to simulate.
        pairs: The :class:`~repro.spawning.SpawnPairSet` to spawn from.
        config: The :class:`~repro.cmt.ProcessorConfig`; its predictor
            and thread-unit count complete the run's identity.
        workload: Workload label of the run.
        policy: Spawning-policy label of the run.
        scale: Workload scale label of the run.

    Returns:
        The :class:`TracedRun`: stats, event stream and ``simulate``
        wall time.
    """
    # Imported here: repro.cmt imports repro.obs.events.
    from repro.cmt.processor import simulate

    tracer = EventTracer()
    started = time.perf_counter()
    stats = simulate(trace, pairs, config, tracer=tracer)
    seconds = time.perf_counter() - started
    meta = {
        "workload": workload,
        "policy": policy,
        "vp": config.value_predictor,
        "scale": scale,
        "tus": config.num_thread_units,
    }
    return TracedRun(stats, tracer, seconds, meta)


def validate_chrome_trace(
    trace: Dict[str, Any],
    expected_version: int = CHROME_TRACE_SCHEMA_VERSION,
) -> List[str]:
    """Check a trace object against the Chrome trace-event schema.

    Returns a list of problems (empty when the trace is valid).  This is
    the schema check the CLI smoke step, the dashboard and the tests
    share — it covers the subset of the format we emit: a
    ``traceEvents`` array whose entries carry ``ph``/``pid``/``tid``/
    ``name``, with ``ts``+``dur`` on complete events and a scope flag on
    instants.  The trace's ``metadata.schema_version`` must equal
    ``expected_version``; a trace with no stamp at all is treated as
    version 1 (pre-stamp exports) and flagged unless the caller passes
    ``expected_version=1``.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    metadata = trace.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        problems.append("metadata is not an object")
        metadata = None
    version = (metadata or {}).get("schema_version", 1)
    if version != expected_version:
        problems.append(
            f"trace schema_version {version!r} != expected "
            f"{expected_version}"
            + ("" if metadata and "schema_version" in metadata
               else " (no metadata.schema_version stamp; assuming 1)")
        )
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in (_PH_COMPLETE, _PH_METADATA, _PH_INSTANT, "B", "E", "C"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} missing or not an int")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: name missing or not a string")
        if ph == _PH_COMPLETE:
            ts, dur = event.get("ts"), event.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: complete event needs ts >= 0")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
        elif ph == _PH_INSTANT:
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: instant event needs ts")
            if event.get("s") not in ("g", "p", "t", None):
                problems.append(f"{where}: bad instant scope {event.get('s')!r}")
        elif ph == _PH_METADATA:
            if event.get("name") not in (
                "process_name", "thread_name", "process_labels",
                "process_sort_index", "thread_sort_index",
            ):
                problems.append(
                    f"{where}: unknown metadata name {event.get('name')!r}"
                )
    return problems
