"""Layer spans recorded from outside the program.

:func:`install` wraps the public calls of each layer at the module
attributes through which ``repro.experiments.framework`` (and the
engine) reach them.  While a :class:`Tracer` is enabled, every wrapped
call records a span — name, start, end, parent span and the sweep
point it belongs to — in memory; :func:`layer_report` turns the spans
into per-layer self times and counts once the run is over.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    """One timed call: ``[start, end)`` on ``time.perf_counter``."""

    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(
        self, name: str, start: float, parent: Optional[int], op: Optional[str]
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs: Dict[str, float] = {}

    def remapped(self, clock: Callable[[float], float]) -> "Span":
        """A copy of the span with its start and end mapped through ``clock``."""
        span = Span(self.name, clock(self.start), self.parent, self.op)
        span.end = clock(self.end)
        span.attrs = self.attrs
        return span

    def to_dict(self) -> Dict[str, Any]:
        """JSON view of the span."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder; records only while ``enabled``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.op: Optional[str] = None
        self._stack: List[int] = []

    def begin(self, name: str) -> Span:
        """Open a span nested in the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def current(self) -> Span:
        """The innermost open span."""
        return self.spans[self._stack[-1]]

    def end(self, span: Span) -> None:
        """Close the innermost open span (which must be ``span``)."""
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        note: Optional[Callable[[Span, Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span; ``note`` adds counts after it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if note is not None:
                note(span, args, result)
            return result

        return wrapper


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls so ``tracer`` sees them.

    Wrapped, at the attributes the pipeline calls through:
    ``framework.load_trace``, ``TraceColumns.build``,
    ``framework.select_profile_pairs``/``heuristic_pairs``,
    ``framework.simulate``, ``ArtifactCache.lookup``/``store``,
    ``ParallelEngine.run``, ``figures.seed_run`` and the figure drivers.
    ``engine.execute_point`` is wrapped (without a span) to tag spans
    with the sweep point they belong to.
    """
    from repro.cache import store as store_mod
    from repro.exec import columns as columns_mod
    from repro.experiments import engine as engine_mod
    from repro.experiments import figures as figures_mod
    from repro.experiments import framework

    def note_trace(span: Span, args: Tuple[Any, ...], trace: Any) -> None:
        span.attrs["insts"] = len(trace)

    load_trace = framework.load_trace
    wrapped_load = tracer.wrap("workloads.load_trace", load_trace, note_trace)
    # clear_memos() calls load_trace.cache_clear() through this attribute.
    wrapped_load.cache_clear = load_trace.cache_clear
    framework.load_trace = wrapped_load

    build = columns_mod.TraceColumns.build.__func__
    columns_mod.TraceColumns.build = classmethod(
        tracer.wrap("exec.columns", build)
    )

    def note_pairs(span: Span, args: Tuple[Any, ...], pairs: Any) -> None:
        span.attrs["pairs"] = len(pairs)

    for attr in ("select_profile_pairs", "heuristic_pairs"):
        setattr(
            framework,
            attr,
            tracer.wrap("spawning.select", getattr(framework, attr), note_pairs),
        )

    def note_sim(span: Span, args: Tuple[Any, ...], stats: Any) -> None:
        span.attrs.update(
            insts=stats.instructions,
            cycles=stats.cycles,
            spawns=stats.spawns,
            denied=stats.spawns_denied_no_tu,
            vp_predictions=stats.value_predictions,
            vp_hits=stats.value_hits,
        )

    framework.simulate = tracer.wrap("cmt.simulate", framework.simulate, note_sim)

    cache_cls = store_mod.ArtifactCache
    missing = store_mod._MISSING
    lookup = cache_cls.lookup

    def timed_lookup(self: Any, kind: str, key: str) -> Any:
        disk_before = self.stats.disk_hits
        value = lookup(self, kind, key)
        if tracer.enabled:
            # Runs inside the wrapper, so the innermost open span is ours.
            attrs = tracer.current().attrs
            attrs["hit"] = 0.0 if value is missing else 1.0
            if self.stats.disk_hits > disk_before:
                attrs["bytes_read"] = self.path(kind, key).stat().st_size
        return value

    cache_cls.lookup = tracer.wrap("cache.lookup", timed_lookup)

    def note_store(span: Span, args: Tuple[Any, ...], path: Any) -> None:
        span.attrs["bytes_written"] = path.stat().st_size

    cache_cls.store = tracer.wrap("cache.store", cache_cls.store, note_store)

    def note_run(span: Span, args: Tuple[Any, ...], outcomes: Any) -> None:
        span.attrs["points"] = len(outcomes)
        span.attrs["retries"] = sum(
            max(0, outcome.attempts - 1) for outcome in outcomes.values()
        )

    engine_cls = engine_mod.ParallelEngine
    engine_cls.run = tracer.wrap("experiments.dispatch", engine_cls.run, note_run)

    execute_point = engine_mod.execute_point

    @functools.wraps(execute_point)
    def tagged_execute(point: Any, cache: Any = None) -> Any:
        previous, tracer.op = tracer.op, point.key
        try:
            return execute_point(point, cache)
        finally:
            tracer.op = previous

    engine_mod.execute_point = tagged_execute
    figures_mod.seed_run = tracer.wrap("experiments.assemble", figures_mod.seed_run)
    for name, driver in list(figures_mod.ALL_FIGURES.items()):
        figures_mod.ALL_FIGURES[name] = tracer.wrap("experiments.assemble", driver)


def layer_report(spans: Sequence[Span], root: int) -> Dict[str, float]:
    """Per-layer self times and counts of the spans under span ``root``.

    ``other_s`` is the root's own time: the part of the timed operation
    that no layer span covers; ``root_s`` is the root's duration.
    """
    selfs = self_times(spans)
    report: Dict[str, float] = {
        "workloads.trace_s": 0.0,
        "workloads.traces": 0,
        "workloads.kinsts": 0.0,
        "exec.columns_s": 0.0,
        "exec.columns_built": 0,
        "spawning.select_s": 0.0,
        "spawning.selections": 0,
        "spawning.pairs": 0,
        "cmt.sim_s": 0.0,
        "cmt.sims": 0,
        "cmt.kinsts": 0.0,
        "cmt.cycles": 0,
        "cache.get_s": 0.0,
        "cache.put_s": 0.0,
        "cache.hits": 0,
        "cache.misses": 0,
        "cache.puts": 0,
        "cache.mb_read": 0.0,
        "cache.mb_written": 0.0,
        "experiments.dispatch_s": 0.0,
        "experiments.assemble_s": 0.0,
        "experiments.points": 0,
        "experiments.retries": 0,
    }
    spawns = denied = vp_predictions = vp_hits = 0.0
    for index, span in enumerate(spans):
        if index == root or not _under(spans, index, root):
            continue
        own = selfs[index]
        attrs = span.attrs
        name = span.name
        if name == "workloads.load_trace":
            report["workloads.trace_s"] += own
            report["workloads.traces"] += 1
            report["workloads.kinsts"] += attrs.get("insts", 0) / 1000.0
        elif name == "exec.columns":
            report["exec.columns_s"] += own
            report["exec.columns_built"] += 1
        elif name == "spawning.select":
            report["spawning.select_s"] += own
            report["spawning.selections"] += 1
            report["spawning.pairs"] += attrs.get("pairs", 0)
        elif name == "cmt.simulate":
            report["cmt.sim_s"] += own
            report["cmt.sims"] += 1
            report["cmt.kinsts"] += attrs.get("insts", 0) / 1000.0
            report["cmt.cycles"] += attrs.get("cycles", 0)
            spawns += attrs.get("spawns", 0)
            denied += attrs.get("denied", 0)
            vp_predictions += attrs.get("vp_predictions", 0)
            vp_hits += attrs.get("vp_hits", 0)
        elif name == "cache.lookup":
            report["cache.get_s"] += own
            if attrs.get("hit"):
                report["cache.hits"] += 1
            else:
                report["cache.misses"] += 1
            report["cache.mb_read"] += attrs.get("bytes_read", 0) / 1e6
        elif name == "cache.store":
            report["cache.put_s"] += own
            report["cache.puts"] += 1
            report["cache.mb_written"] += attrs.get("bytes_written", 0) / 1e6
        elif name == "experiments.dispatch":
            report["experiments.dispatch_s"] += own
            report["experiments.points"] += attrs.get("points", 0)
            report["experiments.retries"] += attrs.get("retries", 0)
        elif name == "experiments.assemble":
            report["experiments.assemble_s"] += own
    lookups = report["cache.hits"] + report["cache.misses"]
    report["cache.hit_ratio"] = report["cache.hits"] / lookups if lookups else 0.0
    kinsts = report["cmt.kinsts"]
    report["cmt.us_per_kinst"] = report["cmt.sim_s"] * 1e6 / kinsts if kinsts else 0.0
    report["cmt.spawn_grant_ratio"] = (
        spawns / (spawns + denied) if spawns + denied else 0.0
    )
    report["cmt.vp_hit_rate"] = vp_hits / vp_predictions if vp_predictions else 0.0
    report["other_s"] = selfs[root]
    report["root_s"] = spans[root].end - spans[root].start
    return report


def _under(spans: Sequence[Span], index: int, root: int) -> bool:
    """Whether span ``index`` is nested (at any depth) under ``root``."""
    parent = spans[index].parent
    while parent is not None:
        if parent == root:
            return True
        parent = spans[parent].parent
    return False
