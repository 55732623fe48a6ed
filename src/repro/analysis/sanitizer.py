"""Replay sanitizer: speculation invariants checked over the event stream.

A TSan-style post-mortem checker for the simulator.  It consumes the
structured event stream (``repro.obs.events``; in memory or round-tripped
through JSONL) of one simulation and verifies the invariants that make
speculative multithreading *safe* — the committed architectural state must
be exactly the sequential execution, no matter how many threads were
spawned, mispredicted, squashed or fault-corrupted along the way:

``spawn-target``
    Every spawn points where it claims: the thread's start position holds
    the pair's CQIP and the spawn position holds its SP.
``commit-tiling``
    Commits appear in program order and tile the sequential trace exactly
    — every position commits once, none twice, none never; folded
    (squashed-into-predecessor) threads never commit.
``counter-parity``
    Replaying the stream reproduces the simulator's headline counters
    (the stream and the aggregate stats cannot disagree).
``corruption-surfaced``
    Every fault-injected live-in corruption is surfaced as an event,
    matches the injected count, and hit a value that was actually
    predicted (a corrupted copy would be an injector bug).
``static-may-dependence``
    Soundness oracle: every *dynamic* cross-thread memory dependence a
    committed speculative thread consumed lies inside the static may-RAW
    set of its (SP, CQIP) pair computed by
    :class:`repro.analysis.dependence.DependenceAnalysis`.

Checks that fail produce structured :class:`Violation` records collected
in a :class:`SanitizerReport`; :meth:`SanitizerReport.raise_first` escalates
to :class:`repro.errors.InvariantViolation` for fail-fast callers.  The
sanitizer needs an *unfiltered* stream (no ``kinds`` filter on the tracer);
prediction-counter parity is only checkable for realistic predictors, since
the perfect oracle emits ``predict.hit`` events for free register-file
copies it does not count as predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.dependence import DependenceAnalysis
from repro.errors import InvariantViolation
from repro.exec.trace import Trace
from repro.obs.events import (
    EV_LIVEIN_CORRUPT,
    EV_PREDICT_HIT,
    EV_PREDICT_MISS,
    EV_PREDICT_SYNC,
    EV_THREAD_COMMIT,
    EV_THREAD_SPAWN,
    EV_THREAD_SQUASH,
    EV_THREAD_START,
    SimEvent,
    replay_counters,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cmt.config import ProcessorConfig
    from repro.cmt.stats import SimulationStats
    from repro.faults.injector import FaultInjector
    from repro.spawning.pairs import SpawnPairSet

#: ``replay_counters`` key -> ``SimulationStats`` attribute, for the
#: counters that must agree on every traced run.
_PARITY_KEYS: Tuple[Tuple[str, str], ...] = (
    ("spawns", "spawns"),
    ("threads_committed", "threads_committed"),
    ("threads_degraded", "threads_degraded"),
    ("spawns_dropped", "spawns_dropped"),
    ("spawns_retried", "spawns_retried"),
    ("tu_blackouts", "tu_blackouts"),
    ("control_misspeculations", "control_misspeculations"),
    ("liveins_corrupted", "liveins_corrupted"),
    ("forward_delays", "forward_delays"),
)

#: Value predictors whose prediction counters match the predict.* events
#: one-to-one (the perfect oracle emits uncounted copy hits).
REALISTIC_PREDICTORS = frozenset({"stride", "fcm", "last"})


@dataclass(frozen=True)
class Violation:
    """One failed speculation invariant.

    ``context`` is a tuple of ``(key, value)`` pairs pinpointing the
    offending event/thread/position — kept as a tuple so violations stay
    hashable and deterministic.
    """

    invariant: str
    message: str
    context: Tuple[Tuple[str, object], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable view of the violation."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "context": dict(self.context),
        }

    def format(self) -> str:
        """Return a one-line human-readable rendering."""
        ctx = ", ".join(f"{k}={v}" for k, v in self.context)
        suffix = f"  [{ctx}]" if ctx else ""
        return f"{self.invariant}: {self.message}{suffix}"


@dataclass
class SanitizerReport:
    """Outcome of one sanitizer pass over an event stream.

    ``checks`` counts the individual assertions evaluated per invariant
    (so "zero violations" is distinguishable from "nothing checked");
    ``corruptions_flagged`` counts the injected live-in corruptions the
    stream surfaced.
    """

    violations: List[Violation] = field(default_factory=list)
    checks: Dict[str, int] = field(default_factory=dict)
    corruptions_flagged: int = 0
    trace_length: int = 0

    @property
    def ok(self) -> bool:
        """True when every checked invariant held."""
        return not self.violations

    def _checked(self, invariant: str, count: int = 1) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + count

    def _fail(
        self, invariant: str, message: str, **context: object
    ) -> None:
        self.violations.append(
            Violation(invariant, message, tuple(sorted(context.items())))
        )

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable view of the report."""
        return {
            "ok": self.ok,
            "trace_length": self.trace_length,
            "checks": dict(sorted(self.checks.items())),
            "corruptions_flagged": self.corruptions_flagged,
            "violations": [v.to_dict() for v in self.violations],
        }

    def format(self) -> str:
        """Return a multi-line human-readable rendering."""
        total = sum(self.checks.values())
        lines = [
            f"sanitizer: {total} checks, "
            f"{len(self.violations)} violation(s), "
            f"{self.corruptions_flagged} corruption(s) surfaced"
        ]
        lines.extend(f"  {v.format()}" for v in self.violations)
        return "\n".join(lines)

    def raise_first(self) -> None:
        """Raise :class:`InvariantViolation` for the first violation.

        No-op when the report is clean.
        """
        if not self.violations:
            return
        first = self.violations[0]
        raise InvariantViolation(
            f"{first.invariant}: {first.message}",
            **{str(k): v for k, v in first.context},
        )


def sanitize_events(
    trace: Trace,
    events: Sequence[SimEvent],
    stats: Optional["SimulationStats"] = None,
    analysis: Optional[DependenceAnalysis] = None,
    check_oracle: bool = True,
    compare_predictions: bool = False,
) -> SanitizerReport:
    """Check the speculation invariants of one simulation's event stream.

    Args:
        trace: The sequential trace the simulation ran over.
        events: The *unfiltered* event stream of that run (in emission
            order, e.g. ``EventTracer.events`` or ``events_from_jsonl``).
        stats: Optional end-of-run stats; enables counter parity and the
            exact corruption count check.
        analysis: Optional shared static analysis (built on demand when
            the oracle check runs).
        check_oracle: Verify every dynamic cross-thread memory dependence
            against the static may-RAW set.
        compare_predictions: Also compare predict-hit/miss counters
            against the stats (only sound for realistic predictors, see
            :data:`REALISTIC_PREDICTORS`).

    Returns:
        The populated :class:`SanitizerReport`.
    """
    report = SanitizerReport(trace_length=len(trace))
    n = len(trace)

    spawns: Dict[int, SimEvent] = {}
    commits: List[SimEvent] = []
    folded: Set[int] = set()
    corrupts: List[SimEvent] = []
    root_seq: Optional[int] = None
    predicted_hits: Set[Tuple[int, int]] = set()
    has_predict_events = False
    corrupt_unpredicted: List[SimEvent] = []

    for event in events:
        kind = event.kind
        if kind == EV_THREAD_SPAWN:
            spawns[event.thread] = event
        elif kind == EV_THREAD_COMMIT:
            commits.append(event)
        elif kind == EV_THREAD_SQUASH:
            if event.attrs.get("mode") == "fold":
                folded.add(event.thread)
        elif kind == EV_THREAD_START:
            if event.attrs.get("root"):
                root_seq = event.thread
        elif kind == EV_PREDICT_HIT:
            has_predict_events = True
            predicted_hits.add((event.thread, int(event.attrs.get("reg", -1))))
        elif kind in (EV_PREDICT_MISS, EV_PREDICT_SYNC):
            has_predict_events = True
        elif kind == EV_LIVEIN_CORRUPT:
            corrupts.append(event)
            reg = int(event.attrs.get("reg", -1))
            if (event.thread, reg) not in predicted_hits:
                corrupt_unpredicted.append(event)

    # ------------------------------------------------------------------
    # spawn-target: spawns land on their pair's pcs.
    # ------------------------------------------------------------------
    for seq, event in sorted(spawns.items()):
        attrs = event.attrs
        start_pos = attrs.get("start_pos")
        cqip_pc = attrs.get("cqip_pc")
        sp_pc = attrs.get("sp_pc")
        spawn_pos = attrs.get("spawn_pos")
        if start_pos is None or cqip_pc is None:
            continue
        report._checked("spawn-target")
        if not 0 <= start_pos < n:
            report._fail(
                "spawn-target",
                f"thread {seq} start position {start_pos} outside trace",
                thread=seq,
                start_pos=start_pos,
            )
            continue
        if trace.pc_at(start_pos) != cqip_pc:
            report._fail(
                "spawn-target",
                f"thread {seq} starts at trace[{start_pos}] "
                f"(pc {trace.pc_at(start_pos)}), not its CQIP pc {cqip_pc}",
                thread=seq,
                start_pos=start_pos,
                cqip_pc=cqip_pc,
            )
        if spawn_pos is not None:
            if not 0 <= spawn_pos < n or trace.pc_at(spawn_pos) != sp_pc:
                report._fail(
                    "spawn-target",
                    f"thread {seq} spawned from trace[{spawn_pos}], which "
                    f"does not hold its SP pc {sp_pc}",
                    thread=seq,
                    spawn_pos=spawn_pos,
                    sp_pc=sp_pc,
                )
            elif spawn_pos >= start_pos:
                report._fail(
                    "spawn-target",
                    f"thread {seq} spawn position {spawn_pos} is not "
                    f"before its start position {start_pos}",
                    thread=seq,
                    spawn_pos=spawn_pos,
                    start_pos=start_pos,
                )

    # ------------------------------------------------------------------
    # commit-tiling: commits tile the sequential trace in program order.
    # ------------------------------------------------------------------
    if not commits:
        report._checked("commit-tiling")
        if n > 0:
            report._fail(
                "commit-tiling",
                "stream contains no thread.commit events for a non-empty "
                "trace (was the tracer kind-filtered?)",
            )
    else:
        expected = 0
        for event in commits:
            report._checked("commit-tiling")
            seq = event.thread
            size = int(event.attrs.get("size", -1))
            if seq in folded:
                report._fail(
                    "commit-tiling",
                    f"thread {seq} was folded into its predecessor but "
                    "committed anyway",
                    thread=seq,
                )
            if seq == root_seq:
                start = 0
            elif seq in spawns:
                start = int(spawns[seq].attrs.get("start_pos", -1))
            else:
                report._fail(
                    "commit-tiling",
                    f"commit of unknown thread {seq} (no spawn or root "
                    "start event)",
                    thread=seq,
                )
                continue
            if size < 0:
                report._fail(
                    "commit-tiling",
                    f"thread {seq} committed a negative size",
                    thread=seq,
                    size=size,
                )
                continue
            if start != expected:
                report._fail(
                    "commit-tiling",
                    f"thread {seq} committed [{start}, {start + size}) but "
                    f"the next uncommitted position is {expected}",
                    thread=seq,
                    start=start,
                    expected=expected,
                )
            expected = start + size
        report._checked("commit-tiling")
        if expected != n:
            report._fail(
                "commit-tiling",
                f"commits cover [0, {expected}) but the sequential trace "
                f"has {n} instructions",
                committed=expected,
                trace_length=n,
            )

    # ------------------------------------------------------------------
    # counter-parity: the stream replays to the aggregate counters.
    # ------------------------------------------------------------------
    if stats is not None:
        replay = replay_counters(events)
        for replay_key, stats_attr in _PARITY_KEYS:
            report._checked("counter-parity")
            expected_value = int(getattr(stats, stats_attr))
            if replay[replay_key] != expected_value:
                report._fail(
                    "counter-parity",
                    f"stream replays {replay_key}={replay[replay_key]} but "
                    f"stats recorded {expected_value}",
                    counter=replay_key,
                    replayed=replay[replay_key],
                    recorded=expected_value,
                )
        if compare_predictions:
            pairs = (
                ("predict_hits", int(stats.value_hits)),
                (
                    "predict_misses",
                    int(stats.value_predictions) - int(stats.value_hits),
                ),
            )
            for replay_key, expected_value in pairs:
                report._checked("counter-parity")
                if replay[replay_key] != expected_value:
                    report._fail(
                        "counter-parity",
                        f"stream replays {replay_key}={replay[replay_key]} "
                        f"but stats recorded {expected_value}",
                        counter=replay_key,
                        replayed=replay[replay_key],
                        recorded=expected_value,
                    )

    # ------------------------------------------------------------------
    # corruption-surfaced: injected corruptions are visible and sane.
    # ------------------------------------------------------------------
    report.corruptions_flagged = len(corrupts)
    if stats is not None:
        report._checked("corruption-surfaced")
        injected = int(getattr(stats, "liveins_corrupted", 0))
        if len(corrupts) != injected:
            report._fail(
                "corruption-surfaced",
                f"{injected} live-in corruption(s) injected but "
                f"{len(corrupts)} surfaced in the stream",
                injected=injected,
                surfaced=len(corrupts),
            )
    for event in corrupts:
        report._checked("corruption-surfaced")
        if event.thread not in spawns:
            report._fail(
                "corruption-surfaced",
                f"corruption on thread {event.thread} which was never "
                "spawned",
                thread=event.thread,
            )
    if has_predict_events:
        for event in corrupt_unpredicted:
            report._checked("corruption-surfaced")
            report._fail(
                "corruption-surfaced",
                f"corrupted live-in r{event.attrs.get('reg')} of thread "
                f"{event.thread} was never delivered as a predict hit",
                thread=event.thread,
                reg=event.attrs.get("reg"),
            )

    # ------------------------------------------------------------------
    # static-may-dependence: dynamic cross-thread RAWs are in the may-set.
    # ------------------------------------------------------------------
    if check_oracle and trace.program is not None:
        memory_deps = trace.memory_deps
        for event in commits:
            seq = event.thread
            spawn_event = spawns.get(seq)
            if spawn_event is None:
                continue  # root thread or already reported above
            attrs = spawn_event.attrs
            spawn_pos = attrs.get("spawn_pos")
            start = attrs.get("start_pos")
            sp_pc = attrs.get("sp_pc")
            cqip_pc = attrs.get("cqip_pc")
            if spawn_pos is None or start is None:
                continue  # stream predates the spawn_pos attribute
            size = int(event.attrs.get("size", 0))
            if analysis is None:
                analysis = DependenceAnalysis(trace.program)
            try:
                risk = analysis.analyze_pair(int(sp_pc), int(cqip_pc))
            except ValueError:
                report._fail(
                    "static-may-dependence",
                    f"pair ({sp_pc}, {cqip_pc}) of thread {seq} is not "
                    "analysable against the program",
                    thread=seq,
                )
                continue
            end = min(int(start) + size, n)
            for pos in range(int(start), end):
                producer = memory_deps[pos]
                if producer < 0 or not int(spawn_pos) <= producer < int(start):
                    continue
                report._checked("static-may-dependence")
                dep = (trace.pc_at(producer), trace.pc_at(pos))
                if dep not in risk.may_raw:
                    report._fail(
                        "static-may-dependence",
                        f"thread {seq} consumed store pc {dep[0]} -> load "
                        f"pc {dep[1]} across the spawn, missing from the "
                        "static may-RAW set of pair "
                        f"({sp_pc}, {cqip_pc})",
                        thread=seq,
                        store_pc=dep[0],
                        load_pc=dep[1],
                        producer_pos=producer,
                        load_pos=pos,
                    )
    return report


def sanitize_run(
    trace: Trace,
    pairs: Optional["SpawnPairSet"] = None,
    config: Optional["ProcessorConfig"] = None,
    injector: Optional["FaultInjector"] = None,
    analysis: Optional[DependenceAnalysis] = None,
    check_oracle: bool = True,
) -> Tuple["SimulationStats", SanitizerReport]:
    """Simulate with tracing enabled and sanitize the resulting stream.

    Convenience wrapper for tests and the ``repro sanitize`` CLI verb:
    runs one simulation with a fresh :class:`~repro.obs.events.EventTracer`
    and checks every invariant, enabling prediction-counter parity exactly
    when the configured predictor is realistic.

    Args:
        trace: Sequential trace to simulate.
        pairs: Spawning pairs (None simulates single-threaded).
        config: Processor configuration (defaults apply otherwise).
        injector: Optional fault injector.
        analysis: Optional shared static analysis.
        check_oracle: Forwarded to :func:`sanitize_events`.

    Returns:
        ``(stats, report)`` for the run.
    """
    # Imported lazily: repro.cmt depends on repro.spawning, and keeping
    # the analysis package importable without the simulator is cheap.
    from repro.cmt.config import ProcessorConfig as _ProcessorConfig
    from repro.cmt.processor import simulate
    from repro.obs.events import EventTracer

    config = config or _ProcessorConfig()
    tracer = EventTracer()
    stats = simulate(trace, pairs, config, injector, tracer=tracer)
    report = sanitize_events(
        trace,
        tracer.events,
        stats=stats,
        analysis=analysis,
        check_oracle=check_oracle,
        compare_predictions=config.value_predictor in REALISTIC_PREDICTORS,
    )
    return stats, report
