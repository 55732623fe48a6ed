"""Structured simulation events: typed emission, JSONL export, replay.

The simulator's end-of-run :class:`~repro.cmt.stats.SimulationStats`
aggregates *how much* happened; the event stream records *when and to
whom*.  Every behavioural quantity the paper plots — active-thread
occupancy (Fig. 4), thread-size distributions (Fig. 7), squash/removal
dynamics (Figs. 5/10) — can be reconstructed from the stream, which is
what :func:`replay_counters` does (and what the round-trip test in
``tests/test_obs_events.py`` enforces against the aggregate counters).

Tracing follows a null-object design: the processor holds a tracer
object unconditionally, and :data:`NULL_TRACER` (``enabled = False``,
no-op ``emit``) stands in when tracing is off.  Emission sites in the
hot loop are guarded by one hoisted boolean, so a run with tracing
disabled executes the same instruction-for-instruction path as before —
the equal-stats gate holds unchanged.

Event taxonomy (``kind`` strings, dotted ``<subsystem>.<what>``):

================== ====================================================
kind               emitted when
================== ====================================================
``thread.spawn``   a spawn succeeds (parent forks a new thread)
``thread.start``   a thread begins fetching (root thread included)
``thread.squash``  a thread's speculative work is discarded
``thread.restart`` a squashed thread restarts on another unit
``thread.commit``  a thread retires in program order
``spawn.retry``    a spawn request needed interconnect retries
``spawn.drop``     a spawn request exhausted its retry budget
``spawn.ghost``    control misspeculation — the CQIP is never reached
``tu.blackout``    a running thread hit a unit blackout window
``pair.remove``    a spawning pair was removed by a dynamic policy
``pair.revive``    a removed pair was given another chance
``predict.hit``    a live-in value prediction (or copy) was correct
``predict.miss``   a live-in value prediction was wrong
``predict.sync``   a live-in was not predicted (synchronise)
``livein.corrupt`` an injected fault corrupted a predicted live-in
``forward.delay``  an injected fault delayed a register forward
``cache.install``  an L1 miss installed a cache line
================== ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

EV_THREAD_SPAWN = "thread.spawn"
EV_THREAD_START = "thread.start"
EV_THREAD_SQUASH = "thread.squash"
EV_THREAD_RESTART = "thread.restart"
EV_THREAD_COMMIT = "thread.commit"
EV_SPAWN_RETRY = "spawn.retry"
EV_SPAWN_DROP = "spawn.drop"
EV_SPAWN_GHOST = "spawn.ghost"
EV_TU_BLACKOUT = "tu.blackout"
EV_PAIR_REMOVE = "pair.remove"
EV_PAIR_REVIVE = "pair.revive"
EV_PREDICT_HIT = "predict.hit"
EV_PREDICT_MISS = "predict.miss"
EV_PREDICT_SYNC = "predict.sync"
EV_LIVEIN_CORRUPT = "livein.corrupt"
EV_FORWARD_DELAY = "forward.delay"
EV_CACHE_INSTALL = "cache.install"

#: Every event kind the simulator can emit.
EVENT_KINDS = frozenset(
    {
        EV_THREAD_SPAWN,
        EV_THREAD_START,
        EV_THREAD_SQUASH,
        EV_THREAD_RESTART,
        EV_THREAD_COMMIT,
        EV_SPAWN_RETRY,
        EV_SPAWN_DROP,
        EV_SPAWN_GHOST,
        EV_TU_BLACKOUT,
        EV_PAIR_REMOVE,
        EV_PAIR_REVIVE,
        EV_PREDICT_HIT,
        EV_PREDICT_MISS,
        EV_PREDICT_SYNC,
        EV_LIVEIN_CORRUPT,
        EV_FORWARD_DELAY,
        EV_CACHE_INSTALL,
    }
)

#: High-volume kinds (one event per live-in or per L1 miss).  Timeline
#: export and the default CLI trace skip them; pass an explicit kind
#: filter to keep them.
BULK_KINDS = frozenset(
    {EV_PREDICT_HIT, EV_PREDICT_MISS, EV_PREDICT_SYNC, EV_CACHE_INSTALL}
)


@dataclass(frozen=True)
class SimEvent:
    """One structured simulation event.

    ``cycle`` is simulated time (``-1`` when the emitting site has no
    cycle in scope, e.g. injector-internal decisions); ``tu`` and
    ``thread`` are ``-1`` when not applicable.
    """

    kind: str
    cycle: int
    tu: int = -1
    thread: int = -1
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Return the flat JSON view of the event."""
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "tu": self.tu,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


class NullTracer:
    """The disabled tracer: ``emit`` is a no-op and ``enabled`` is False.

    The simulator keeps a tracer reference unconditionally; holding this
    null object (rather than ``None`` plus scattered conditionals) keeps
    every cold emission site a plain method call while the hot loop
    skips emission entirely via one hoisted ``enabled`` check.
    """

    enabled = False
    events: List[SimEvent] = []  # always empty, shared read-only view

    def emit(self, kind: str, cycle: int, tu: int = -1, thread: int = -1,
             **attrs: Any) -> None:
        """Discard the event (disabled-tracing fast path)."""


#: Shared disabled tracer (stateless, safe to reuse across simulations).
NULL_TRACER = NullTracer()


class EventTracer:
    """Collects :class:`SimEvent` records from one simulation.

    Args:
        kinds: Optional subset of :data:`EVENT_KINDS` to record; events
            of other kinds are dropped at emission time.  ``None``
            records everything.
    """

    enabled = True

    def __init__(self, kinds: Optional[Iterable[str]] = None):
        if kinds is not None:
            kinds = frozenset(kinds)
            unknown = kinds - EVENT_KINDS
            if unknown:
                raise ValueError(f"unknown event kinds: {sorted(unknown)}")
        self.kinds = kinds
        self.events: List[SimEvent] = []

    def emit(self, kind: str, cycle: int, tu: int = -1, thread: int = -1,
             **attrs: Any) -> None:
        """Record one event (dropped when filtered out by ``kinds``)."""
        if self.kinds is not None and kind not in self.kinds:
            return
        self.events.append(SimEvent(kind, cycle, tu, thread, attrs))

    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> Dict[str, int]:
        """Return ``{kind: occurrences}`` over the recorded stream."""
        result: Dict[str, int] = {}
        for event in self.events:
            result[event.kind] = result.get(event.kind, 0) + 1
        return result

    def select(self, *kinds: str) -> List[SimEvent]:
        """Return the recorded events of the given kinds, in order."""
        wanted = frozenset(kinds)
        return [e for e in self.events if e.kind in wanted]

    def to_jsonl(self) -> str:
        """Serialise the stream as JSON Lines (one event per line)."""
        return "\n".join(
            json.dumps(e.to_dict(), sort_keys=True) for e in self.events
        )


def events_from_jsonl(text: str) -> List[SimEvent]:
    """Parse a :meth:`EventTracer.to_jsonl` stream back into events."""
    events: List[SimEvent] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        events.append(
            SimEvent(
                kind=data["kind"],
                cycle=int(data["cycle"]),
                tu=int(data.get("tu", -1)),
                thread=int(data.get("thread", -1)),
                attrs=data.get("attrs", {}),
            )
        )
    return events


def replay_counters(events: Iterable[SimEvent]) -> Dict[str, int]:
    """Reconstruct the headline simulation counters from an event stream.

    The returned keys mirror their :class:`~repro.cmt.stats.SimulationStats`
    namesakes; the round-trip test asserts exact equality for a traced
    run, which is what makes the stream trustworthy as a debugging
    artifact: if the events and the counters ever disagree, one of them
    is lying.
    """
    spawned = committed = squashed = dropped = 0
    retried = blackouts = ghosts = corrupted = delays = 0
    predict_hits = predict_misses = 0
    for event in events:
        kind = event.kind
        if kind == EV_THREAD_SPAWN:
            spawned += 1
        elif kind == EV_THREAD_COMMIT:
            committed += 1
        elif kind == EV_THREAD_SQUASH:
            squashed += 1
        elif kind == EV_SPAWN_DROP:
            dropped += 1
        elif kind == EV_SPAWN_RETRY:
            retried += int(event.attrs.get("retries", 1))
        elif kind == EV_TU_BLACKOUT:
            blackouts += 1
        elif kind == EV_SPAWN_GHOST:
            ghosts += 1
        elif kind == EV_LIVEIN_CORRUPT:
            corrupted += 1
        elif kind == EV_FORWARD_DELAY:
            delays += 1
        elif kind == EV_PREDICT_HIT:
            predict_hits += 1
        elif kind == EV_PREDICT_MISS:
            predict_misses += 1
    return {
        "spawns": spawned,
        "threads_committed": committed,
        "threads_degraded": squashed,
        "spawns_dropped": dropped,
        "spawns_retried": retried,
        "tu_blackouts": blackouts,
        "control_misspeculations": ghosts,
        "liveins_corrupted": corrupted,
        "forward_delays": delays,
        "predict_hits": predict_hits,
        "predict_misses": predict_misses,
    }
