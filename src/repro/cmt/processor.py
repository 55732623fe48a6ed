"""Trace-driven simulator of the Clustered Speculative Multithreaded
Processor.

Simulation strategy (see DESIGN.md Section 5): threads own disjoint,
program-ordered segments of the sequential trace; the event loop always
advances the thread with the smallest current fetch cycle (ties to the
least speculative), so every spawn, forward and commit decision only
depends on events that have already been simulated.

Per thread unit the timing model implements the paper's Section 4.1 core:
4-wide fetch stopping at the first taken branch, 4-wide dataflow-limited
issue with the paper's functional-unit mix, a 64-entry ROB, a 10-bit
gshare whose tables persist across threads, and a 32KB 2-way L1.
Cross-thread register dataflow goes through the value predictor at spawn
time; mispredicted or unpredicted live-ins synchronise with their producer
(completion + 3-cycle forward, plus a recovery penalty when a wrong
prediction must be squashed).

Two interchangeable cores implement the timing model
(``ProcessorConfig.sim_core``):

- ``"event"`` (default, :mod:`repro.cmt.event_core`) runs one batched
  loop over the trace's struct-of-arrays columns
  (:mod:`repro.exec.columns`) with hoisted locals, ring-buffer issue
  booking, a fixed-size per-thread commit ring and a wakeup registry:
  blocked threads sleep until the advance that completes their
  producer wakes them, so the clock jumps over dead poll cycles
  instead of ticking them.
- ``"legacy"`` is the original object-graph core (:meth:`run` over
  :meth:`ClusteredProcessor._advance`), kept verbatim as the
  bit-identical reference: the golden-stats fixtures and the
  equal-stats grid (``tests/test_simcore.py`` and, at full scale,
  ``benchmarks/bench_simcore.py``) compare the cores over the full
  workload × pair-scheme × predictor grid.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.cmt.config import ProcessorConfig
from repro.cmt.event_core import run_event
from repro.cmt.spawn_runtime import SpawnRuntime
from repro.cmt.stats import SimulationStats, ThreadRecord
from repro.cmt.thread_unit import ThreadUnit
from repro.errors import InvariantViolation, SimulationTimeout
from repro.exec.trace import Trace
from repro.isa.instructions import FuClass, Opcode, fu_class, latency_of
from repro.obs.events import (
    EV_LIVEIN_CORRUPT,
    EV_PREDICT_HIT,
    EV_PREDICT_MISS,
    EV_PREDICT_SYNC,
    EV_SPAWN_DROP,
    EV_SPAWN_GHOST,
    EV_SPAWN_RETRY,
    EV_THREAD_COMMIT,
    EV_THREAD_RESTART,
    EV_THREAD_SPAWN,
    EV_THREAD_SQUASH,
    EV_THREAD_START,
    EV_TU_BLACKOUT,
    NULL_TRACER,
)
from repro.predictors.value import PerfectPredictor, make_value_predictor
from repro.spawning.pairs import SpawnPair, SpawnPairSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.injector import FaultInjector

_INFINITY = float("inf")

#: Live-in prediction status values.
_HIT = 0  # predicted correctly: value ready at thread start
_MISS = 1  # predicted wrongly: synchronise + recovery penalty
_SYNC = 2  # not predicted: synchronise with the producer


class _Thread:
    """One speculative thread: a trace segment plus timing state."""

    __slots__ = (
        "start",
        "join",
        "cursor",
        "fetch_cycle",
        "tu",
        "start_cycle",
        "local_index",
        "commit_ring",
        "last_commit",
        "finished",
        "finish_cycle",
        "pair",
        "livein_status",
        "livein_actuals",
        "alone_cycles",
        "alone_reported",
        "executed",
        "ghost_tus",
        "seq",
        "waiting_on",
        "poll_pos",
        "poll_memo",
        "poll_root",
        "poll_epoch",
        "event_count",
        "last_pop",
        "poll_sleeping",
        "poll_sleep_base",
        "poll_registered",
    )

    def __init__(
        self,
        start: int,
        join: int,
        tu: ThreadUnit,
        start_cycle: int,
        pair: Optional[SpawnPair],
        seq: int,
    ):
        self.start = start
        self.join = join
        self.cursor = start
        self.fetch_cycle = start_cycle
        self.tu = tu
        self.start_cycle = start_cycle
        self.local_index = 0
        self.commit_ring: List[int] = []
        self.last_commit = start_cycle
        self.finished = False
        self.finish_cycle = start_cycle
        self.pair = pair
        self.livein_status: Dict[int, int] = {}
        self.livein_actuals: Dict[int, object] = {}
        self.alone_cycles = 0
        self.alone_reported = False
        self.executed = 0
        self.ghost_tus: List[ThreadUnit] = []
        self.seq = seq
        #: Trace position this thread sleeps on in the event core's
        #: wakeup registry (-1 = not sleeping).  Poll parking walks
        #: through sleepers to a live thread's clock.
        self.waiting_on = -1
        #: Producer position a spawn-PC-blocked thread is poll-parked on
        #: in the event core (-1 = not parked).  While parked, polls take
        #: the slim replay path instead of the full fetch-group body.
        self.poll_pos = -1
        #: ``(epoch, outcome, min_free_at)`` of the last failed spawn
        #: attempt while parked; replayed on later polls until the epoch
        #: moves (see event_core's spawn-outcome memo).
        self.poll_memo = None
        #: Cached live root of the blocking chain plus the epoch it was
        #: walked at — re-walked only when the epoch moves or the root
        #: stops being live.
        self.poll_root = None
        self.poll_epoch = -1
        #: Events (advances and polls) this thread has processed in the
        #: event core.  A sleeping poller's missed poll count is the
        #: delta of its chain root's event count (one legacy poll per
        #: root event).
        self.event_count = 0
        #: Cycle of this thread's latest event-core event; lets a wake
        #: trigger decide whether a sleeper's virtual poll for the
        #: root's latest event has fired yet.
        self.last_pop = start_cycle
        #: True while a parked poller sleeps off the heap entirely; its
        #: memoized spawn outcome is bulk-replayed at wake time.
        self.poll_sleeping = False
        #: ``poll_root.event_count`` at the moment sleep began.
        self.poll_sleep_base = 0
        #: Position this thread's wakeup-registry entry sits under
        #: (-1 = none); a sleeper re-sleeping on the same position must
        #: not register twice.
        self.poll_registered = -1

    def __lt__(self, other: "_Thread") -> bool:  # heap tie-breaking
        return self.start < other.start


class ClusteredProcessor:
    """Simulates one trace under a spawning policy and configuration."""

    def __init__(
        self,
        trace: Trace,
        pairs: Optional[SpawnPairSet] = None,
        config: Optional[ProcessorConfig] = None,
        injector: Optional["FaultInjector"] = None,
        tracer=None,
        training: Optional[Sequence[tuple]] = None,
    ):
        self.trace = trace
        self.config = config or ProcessorConfig()
        self.pairs = pairs if pairs is not None else SpawnPairSet([])
        # Null-object tracing: every emission site guards on
        # ``tracer.enabled`` so the disabled path stays bit-identical.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.runtime = SpawnRuntime(self.pairs, self.config, tracer=self.tracer)
        self.value_predictor = make_value_predictor(
            self.config.value_predictor, self.config.value_predictor_kb
        )
        self.stats = SimulationStats()
        self.injector = injector
        self._tus = [
            ThreadUnit(i, self.config)
            for i in range(self.config.num_thread_units)
        ]
        for tu in self._tus:
            tu.tracer = self.tracer
        if injector is not None:
            injector.tracer = self.tracer
            for tu in self._tus:
                tu.set_fault_windows(injector.blackout_windows(tu.tu_id))
        self._completion: List[Optional[int]] = [None] * len(trace)
        self._order: List[_Thread] = []  # active threads in program order
        self._heap: List = []
        self._last_commit_cycle = 0
        self._next_seq = 0
        self._executed_total = 0
        #: Unfinished threads in ``_order`` (event-core "alone" test).
        self._running = 0
        # The event core reads the trace columns and books issue through
        # the ring buffers; the legacy core keeps the object graph and
        # the dict tracker.
        self._use_columns = self.config.sim_core == "event"
        #: trace position -> threads sleeping until it completes (the
        #: event core's wakeup registry; empty for the legacy core).
        self._waiters: Dict[int, List[_Thread]] = {}
        #: Observability counters of the last event-core run (clock
        #: jumps, wakeups, stall reasons); ``None`` for the legacy core.
        #: Never feeds :class:`SimulationStats` — results stay equal.
        self.event_metrics: Optional[Dict[str, object]] = None
        self._cols = trace.columns
        if self._use_columns:
            self._spawn_pcs = self.runtime.spawn_pcs()
        else:
            self._spawn_pcs = frozenset()
        if self.config.primes_predictor:
            if self._use_columns:
                if training is None:
                    training = priming_sequence(trace, self.pairs, self.config)
                train = self.value_predictor.train
                for sp_pc, cqip_pc, reg, base, actual in training:
                    train(sp_pc, cqip_pc, reg, base, actual)
            else:
                # The legacy oracle derives its own, never ``training``.
                self._prime_predictor()

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def run(self) -> SimulationStats:
        """Simulate the full trace; returns the statistics."""
        trace = self.trace
        if len(trace) == 0:
            return self.stats
        # The event core owns its whole loop (batch advance + wakeup
        # registry); the legacy loop below advances one fetch group per
        # heap event through :meth:`_advance`.
        if self._use_columns:
            return run_event(self)
        root = self._make_thread(
            start=0,
            join=len(trace),
            tu=self._tus[0],
            start_cycle=0,
            pair=None,
        )
        self._tus[0].free_at = _INFINITY  # occupied by the root
        self._order.append(root)
        self._running += 1
        self._push(root)
        if self.tracer.enabled:
            self.tracer.emit(
                EV_THREAD_START, 0, tu=0, thread=root.seq, root=True
            )

        budget = self.config.cycle_budget
        stall_limit = self.config.livelock_threshold
        stalled_events = 0
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        advance = self._advance
        while heap:
            cycle, _start, thread = heappop(heap)
            if thread.finished or cycle != thread.fetch_cycle:
                continue  # stale heap entry
            if budget is not None and cycle > budget:
                raise SimulationTimeout(
                    "cycle budget exceeded",
                    cycle=cycle,
                    budget=budget,
                    committed=self.stats.threads_committed,
                )
            executed_before = self._executed_total
            advance(thread)
            if self._executed_total == executed_before:
                stalled_events += 1
                if stall_limit is not None and stalled_events > stall_limit:
                    raise InvariantViolation(
                        "no forward progress (livelock watchdog)",
                        cycle=cycle,
                        thread=thread.seq,
                        stalled_events=stalled_events,
                    )
            else:
                stalled_events = 0
            if not thread.finished:
                heappush(heap, (thread.fetch_cycle, thread.start, thread))

        return self._finalize_stats()

    def _finalize_stats(self) -> SimulationStats:
        """Fold per-unit and runtime counters into the final stats."""
        self.stats.cycles = int(self._last_commit_cycle)
        self.stats.instructions = len(self.trace)
        for tu in self._tus:
            self.stats.branch_predictions += tu.gshare.predictions
            self.stats.branch_hits += tu.gshare.hits
            self.stats.cache_accesses += tu.l1.accesses
            self.stats.cache_misses += tu.l1.misses
        self.stats.value_predictions = self.value_predictor.predictions
        self.stats.value_hits = self.value_predictor.hits
        self.stats.pairs_removed_alone = self.runtime.removed_alone
        self.stats.pairs_removed_min_size = self.runtime.removed_min_size
        self.stats.spawns_retried = self.runtime.spawn_retries
        self.stats.spawns_dropped = self.runtime.spawns_dropped
        self.stats.faults_injected += self.runtime.drop_events
        if self.injector is not None:
            self.stats.forward_delays = self.injector.forward_delay_events
            self.stats.faults_injected += self.injector.forward_delay_events
        return self.stats

    # ------------------------------------------------------------------
    # Event loop pieces.
    # ------------------------------------------------------------------

    def _push(self, thread: _Thread) -> None:
        heapq.heappush(self._heap, (thread.fetch_cycle, thread.start, thread))

    def _make_thread(
        self,
        start: int,
        join: int,
        tu: ThreadUnit,
        start_cycle: int,
        pair: Optional[SpawnPair],
    ) -> _Thread:
        thread = _Thread(start, join, tu, start_cycle, pair, self._next_seq)
        if self._use_columns:
            # Fixed-size commit ring indexed modulo the ROB size; the
            # legacy core grows a list instead.
            thread.commit_ring = [0] * self.config.rob_size
        self._next_seq += 1
        return thread

    def _advance(self, thread: _Thread) -> None:
        """Process one fetch group of ``thread`` (legacy reference core)."""
        config = self.config
        trace = self.trace
        completion = self._completion
        trace_on = self.tracer.enabled
        cycle = thread.fetch_cycle
        if self.injector is not None:
            dark_until = thread.tu.dark_until(cycle)
            if dark_until is not None:
                self._on_blackout(thread, cycle, dark_until)
                return
        # "Executing alone": fewer than ``removal_coactive_threshold``
        # other active threads are still running and at least one waiter
        # exists (a lone productive tail with idle units wastes nothing).
        alone = False
        if config.removal_cycles is not None and thread.pair is not None:
            if len(self._order) > 1:
                running_others = sum(
                    1
                    for other in self._order
                    if other is not thread and not other.finished
                )
                alone = running_others < config.removal_coactive_threshold

        pos = thread.cursor
        # ROB full at the group head: wait for the oldest entry to commit.
        if thread.local_index >= config.rob_size:
            blocker = thread.commit_ring[thread.local_index - config.rob_size]
            if blocker > cycle:
                cycle = blocker

        next_fetch = cycle + 1
        spawn_penalty = 0
        fetched = 0
        while fetched < config.fetch_width and pos < thread.join:
            if thread.local_index >= config.rob_size:
                blocker = thread.commit_ring[
                    thread.local_index - config.rob_size
                ]
                if blocker > cycle:
                    break  # the rest of the group waits for ROB space
            inst = trace[pos]
            op = inst.op

            # Spawn attempt at a spawning point (checked at fetch).
            if self.runtime.is_spawning_point(inst.pc):
                spawn_penalty += self._try_spawn(thread, pos, inst.pc, cycle)

            # Operand readiness.
            ready = cycle + 1  # decode/rename stage
            blocked_on = None
            deps = trace.register_deps[pos]
            for src_i, producer in enumerate(deps):
                if producer < 0:
                    continue
                if producer >= thread.start:
                    when = completion[producer]
                    if when is None:
                        raise InvariantViolation(
                            "internal producer not yet simulated",
                            cycle=cycle,
                            thread=thread.seq,
                            position=pos,
                            producer=producer,
                        )
                else:
                    when = self._external_value_time(
                        thread, inst.srcs[src_i], producer
                    )
                    if when is None:
                        blocked_on = producer
                        break
                if when > ready:
                    ready = when
            if blocked_on is None and op is Opcode.LOAD:
                producer = trace.memory_deps[pos]
                if producer >= 0 and not (
                    config.perfect_memory and producer < thread.start
                ):
                    when = completion[producer]
                    if when is None and producer < thread.start:
                        blocked_on = producer
                    elif when is None:
                        raise InvariantViolation(
                            "internal store not yet simulated",
                            cycle=cycle,
                            thread=thread.seq,
                            position=pos,
                            producer=producer,
                        )
                    else:
                        if producer < thread.start:
                            when += config.forward_latency
                        if when > ready:
                            ready = when
            if blocked_on is not None:
                # Producer thread has not simulated that position yet: park
                # until it progresses (its cycle bounds ours from below).
                owner = self._owner_of(blocked_on)
                stall_to = max(
                    thread.fetch_cycle + 1,
                    owner.fetch_cycle if owner is not None else cycle + 1,
                )
                thread.cursor = pos
                thread.fetch_cycle = stall_to
                self._track_alone(thread, alone, stall_to - cycle)
                return

            # Execution latency and resources.
            if op is Opcode.LOAD:
                if trace_on:
                    l1 = thread.tu.l1
                    miss_before = l1.misses
                    latency = 1 + l1.access(inst.addr)
                    if l1.misses != miss_before:
                        thread.tu.note_install(cycle, thread.seq, inst.addr, False)
                else:
                    latency = 1 + thread.tu.l1.access(inst.addr)
                fu = FuClass.LDST
            elif op is Opcode.STORE:
                if trace_on:
                    l1 = thread.tu.l1
                    miss_before = l1.misses
                    l1.access(inst.addr, is_store=True)
                    if l1.misses != miss_before:
                        thread.tu.note_install(cycle, thread.seq, inst.addr, True)
                else:
                    thread.tu.l1.access(inst.addr, is_store=True)
                latency = 1
                fu = FuClass.LDST
            else:
                fu = fu_class(op)
                latency = latency_of(op)
            issue = thread.tu.book_issue_legacy(ready, fu)
            done = issue + latency
            completion[pos] = done

            commit = done if done > thread.last_commit else thread.last_commit
            thread.last_commit = commit
            thread.commit_ring.append(commit)
            thread.local_index += 1
            thread.executed += 1
            pos += 1
            fetched += 1

            # Control flow shapes the fetch group.
            if inst.taken is not None:
                correct = thread.tu.gshare.update(inst.pc, inst.taken)
                if not correct:
                    next_fetch = done + config.mispredict_penalty
                    break
                if inst.taken:
                    break  # fetch stops at the first taken branch
            elif op in (Opcode.JUMP, Opcode.CALL, Opcode.RET):
                break  # unconditional transfers end the group too

        thread.cursor = pos
        thread.fetch_cycle = max(next_fetch, cycle + 1 + spawn_penalty)
        self._executed_total += fetched
        self._track_alone(thread, alone, thread.fetch_cycle - cycle)
        if pos >= thread.join:
            self._finish(thread)

    def _track_alone(self, thread: _Thread, was_alone: bool, delta: int) -> None:
        if not was_alone or self.config.removal_cycles is None:
            return
        thread.alone_cycles += max(delta, 0)
        if (
            not thread.alone_reported
            and thread.alone_cycles >= self.config.removal_cycles
        ):
            thread.alone_reported = True
            self.runtime.note_alone_threshold(thread.pair, thread.fetch_cycle)

    # ------------------------------------------------------------------
    # Fault handling (graceful degradation).
    # ------------------------------------------------------------------

    def _on_blackout(self, thread: _Thread, cycle: int, dark_until: int) -> None:
        """The thread's unit went dark at ``cycle``.

        Speculative threads are squashed and gracefully degraded: restarted
        from scratch on a free healthy unit, or folded back into their
        predecessor's sequential execution.  The architectural head (the
        oldest active thread) cannot be squashed — its work is already
        committing — so it waits the window out.  Either way the committed
        instruction stream is exactly the sequential trace; only timing
        changes.
        """
        self.stats.faults_injected += 1
        self.stats.tu_blackouts += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EV_TU_BLACKOUT,
                cycle,
                tu=thread.tu.tu_id,
                thread=thread.seq,
                dark_until=dark_until,
            )
        index = self._order.index(thread)
        if thread.pair is not None and index > 0:
            target = self._free_tu(cycle)
            if target is not None:
                self._restart_on(thread, target, cycle, dark_until)
                return
            self._fold_into_predecessor(thread, index, cycle, dark_until)
            return
        # Architectural head (or root): stall until the unit returns.
        thread.fetch_cycle = dark_until
        self.stats.fault_cycles_lost += dark_until - cycle

    def _restart_on(
        self, thread: _Thread, target: ThreadUnit, cycle: int, dark_until: int
    ) -> None:
        """Squash ``thread`` and restart its whole segment on ``target``.

        Work completed so far is discarded (its issue bookings stay on the
        dark unit; the segment's completion times are rewritten in program
        order as the thread re-executes), so every trace position still
        commits exactly once.
        """
        self.stats.threads_degraded += 1
        self.stats.fault_cycles_lost += max(cycle - thread.start_cycle, 0)
        if self.tracer.enabled:
            self.tracer.emit(
                EV_THREAD_SQUASH,
                cycle,
                tu=thread.tu.tu_id,
                thread=thread.seq,
                mode="restart",
            )
        thread.tu.free_at = dark_until
        thread.tu = target
        target.free_at = _INFINITY
        restart = cycle + self.config.fault_restart_penalty
        if self.tracer.enabled:
            self.tracer.emit(
                EV_THREAD_RESTART, restart, tu=target.tu_id, thread=thread.seq
            )
        thread.cursor = thread.start
        thread.local_index = 0
        if not self._use_columns:
            thread.commit_ring = []
        # (event core: the preallocated ring is reused — every slot is
        # rewritten before it can be read again once local_index restarts)
        thread.executed = 0
        thread.start_cycle = restart
        thread.last_commit = restart
        thread.fetch_cycle = restart

    def _fold_into_predecessor(
        self, thread: _Thread, index: int, cycle: int, dark_until: int
    ) -> None:
        """Squash ``thread`` and give its segment back to its predecessor.

        The predecessor simply keeps fetching past its old join point —
        sequential re-execution of the squashed work, as if the spawn had
        never happened.  A predecessor that had already finished is
        reactivated.
        """
        pred = self._order[index - 1]
        self._order.pop(index)
        pred.join = thread.join
        thread.finished = True  # drops the thread from the event loop
        self._running -= 1
        thread.tu.free_at = dark_until
        for tu in thread.ghost_tus:
            tu.free_at = cycle
        thread.ghost_tus = []
        self.stats.threads_degraded += 1
        self.stats.fault_cycles_lost += max(cycle - thread.start_cycle, 0)
        if self.tracer.enabled:
            self.tracer.emit(
                EV_THREAD_SQUASH,
                cycle,
                tu=thread.tu.tu_id,
                thread=thread.seq,
                mode="fold",
                pred=pred.seq,
            )
        if pred.finished:
            pred.finished = False
            self._running += 1
            pred.fetch_cycle = max(pred.finish_cycle, cycle)
            self._push(pred)

    def _owner_of(self, pos: int) -> Optional[_Thread]:
        """Active thread whose segment contains trace position ``pos``."""
        for thread in self._order:
            if thread.start <= pos < thread.join:
                return thread
        return None

    def _external_value_time(
        self, thread: _Thread, reg: int, producer: int
    ) -> Optional[int]:
        """Availability of a register produced before the thread started.

        Returns None when the producer has not been simulated yet (the
        caller parks the thread).
        """
        status = thread.livein_status.get(reg)
        if status == _HIT:
            return thread.start_cycle
        when = self._completion[producer]
        if when is None:
            return None
        when += self.config.forward_latency
        injector = self.injector
        if injector is not None and injector.forward_rate:
            when += injector.forward_delay(thread.seq, reg, producer)
        if status == _MISS:
            when += self.config.misprediction_recovery
        return when

    # ------------------------------------------------------------------
    # Spawning.
    # ------------------------------------------------------------------

    def _try_spawn(self, parent: _Thread, pos: int, sp_pc: int, cycle: int) -> int:
        """Attempt a spawn; returns the cycles the fork op cost the parent."""
        config = self.config
        if config.spawn_order_check == "tail" and (
            self._order and self._order[-1] is not parent
        ):
            return 0
        candidates = self.runtime.candidates(sp_pc, cycle)
        if not candidates:
            return 0
        trace = self.trace

        # "Already started": the immediate successor sits exactly at the
        # best CQIP — nothing to do.
        best = candidates[0]
        if parent.join < len(trace) and trace.pc_at(parent.join) == best.cqip_pc:
            self.stats.spawns_skipped_existing += 1
            return 0

        if (
            config.spawn_order_check == "counter"
            and parent.pair is not None
            and self._order
            and self._order[-1] is not parent
        ):
            # Interior thread: a new thread must fit between the parent and
            # its existing successor, so reject candidates expected to
            # outrun the parent's remaining segment.  The tail thread is
            # exempt — anything it spawns becomes the new tail, which is
            # order-safe by construction.
            remaining = parent.pair.expected_distance - (pos - parent.start)
            remaining *= config.order_check_slack
            candidates = [
                pair
                for pair in candidates
                if pair.expected_distance <= remaining
            ]
            if not candidates:
                self.stats.spawns_rejected_order += 1
                return 0

        # Under fault injection the request may be dropped in the spawn
        # interconnect; the spawn logic retries with bounded backoff.
        spawn_cycle = cycle
        if self._injector_drops_spawns():
            granted, retries, delay = self.runtime.request_spawn(
                self.injector, sp_pc, parent.seq, pos
            )
            spawn_cycle = cycle + delay
            self.stats.fault_cycles_lost += delay
            if self.tracer.enabled and (retries or not granted):
                self.tracer.emit(
                    EV_SPAWN_RETRY if granted else EV_SPAWN_DROP,
                    cycle,
                    thread=parent.seq,
                    sp_pc=sp_pc,
                    retries=retries,
                    delay=delay,
                )
            if not granted:
                # The request is abandoned; the backoff cycles still
                # occupied the parent's front-end.
                return delay

        tu = self._free_tu(spawn_cycle)
        if tu is None:
            self.stats.spawns_denied_no_tu += 1
            return 0

        chosen = None
        occurrence = None
        for index, pair in enumerate(candidates):
            occurrence = trace.next_occurrence(pair.cqip_pc, pos, parent.join)
            if occurrence is not None:
                chosen = pair
                if index > 0:
                    self.stats.reassign_fallbacks += 1
                break
        if chosen is None or occurrence is None:
            if config.spawn_order_check == "exact":
                # Oracle ordering: the rejected spawn consumes nothing
                # (beyond any interconnect retries already paid).
                self.stats.spawns_rejected_order += 1
                return spawn_cycle - cycle
            # Control misspeculation: the hardware spawns and only later
            # discovers the CQIP is never reached; the unit is wasted until
            # the parent exhausts its segment.
            tu.free_at = _INFINITY
            parent.ghost_tus.append(tu)
            self.stats.control_misspeculations += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EV_SPAWN_GHOST,
                    cycle,
                    tu=tu.tu_id,
                    thread=parent.seq,
                    sp_pc=sp_pc,
                )
            return config.spawn_cost + (spawn_cycle - cycle)

        start_cycle = (
            spawn_cycle + self.config.spawn_cost + self.config.init_overhead
        )
        child = self._make_thread(
            start=occurrence,
            join=parent.join,
            tu=tu,
            start_cycle=start_cycle,
            pair=chosen,
        )
        parent.join = occurrence
        tu.free_at = _INFINITY
        insort(self._order, child)  # _Thread orders by ``start``
        self._running += 1
        self._push(child)
        self.stats.spawns += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EV_THREAD_SPAWN,
                cycle,
                tu=tu.tu_id,
                thread=child.seq,
                parent=parent.seq,
                sp_pc=sp_pc,
                cqip_pc=chosen.cqip_pc,
                start_pos=occurrence,
                spawn_pos=pos,
            )
            self.tracer.emit(
                EV_THREAD_START, start_cycle, tu=tu.tu_id, thread=child.seq
            )
        # Chosen per call: a bound method kept on ``self`` would make
        # every processor a reference cycle that only the collector frees.
        if self._use_columns:
            self._predict_liveins_cols(child, chosen, spawn_pos=pos)
        else:
            self._predict_liveins(child, chosen, spawn_pos=pos)
        return self.config.spawn_cost + (spawn_cycle - cycle)

    def _injector_drops_spawns(self) -> bool:
        return self.injector is not None and self.injector.spawn_drop_rate > 0

    def _free_tu(self, cycle: int) -> Optional[ThreadUnit]:
        check_dark = self.injector is not None
        best = None
        for tu in self._tus:
            if tu.free_at > cycle:
                continue
            if check_dark and tu.dark_until(cycle) is not None:
                continue
            if best is None or tu.free_at < best.free_at:
                best = tu
        return best

    def _predict_liveins(
        self, child: _Thread, pair: SpawnPair, spawn_pos: int
    ) -> None:
        """Enumerate live-in registers of the new thread and predict them.

        Registers whose last producer executed *before the spawning point*
        are copied from the parent's register file at spawn (always
        correct, no prediction involved).  Only values produced between
        the SP and the CQIP — not yet computed at spawn time — go through
        the value predictor, matching the paper's live-in definition [14].
        """
        trace = self.trace
        vp = self.value_predictor
        injector = self.injector
        perfect = isinstance(vp, PerfectPredictor)
        predict_nothing = self.config.value_predictor == "none"
        trace_on = self.tracer.enabled
        if trace_on:
            t_emit = self.tracer.emit
            t_cycle = int(child.start_cycle)
            t_tu = child.tu.tu_id
            t_seq = child.seq
        # The predictor was last trained at the most recent commit of this
        # pair; in-flight instances (including the new one) determine how
        # far the recurrence must be projected forward.
        pair_key = pair.key()
        lookahead = sum(
            1
            for t in self._order
            if t.pair is not None and t.pair.key() == pair_key
        )
        lookahead = max(lookahead, 1)
        start = child.start
        end = min(child.join, start + self.config.livein_scan_cap)
        written = set()
        reg_deps = trace.register_deps
        for pos in range(start, end):
            inst = trace[pos]
            deps = reg_deps[pos]
            for src_i, reg in enumerate(inst.srcs):
                if reg == 0 or reg in written or reg in child.livein_status:
                    continue
                producer = deps[src_i]
                if producer >= start:
                    continue
                if producer < spawn_pos:
                    # Computed before the spawn fired: the register-file
                    # copy at spawn delivers it for free (a copy is a
                    # trivially-correct prediction and counts as one, as
                    # in the DMT baseline predictor).
                    child.livein_status[reg] = _HIT
                    if not perfect and not predict_nothing:
                        vp.record(True)
                    if trace_on:
                        t_emit(
                            EV_PREDICT_HIT, t_cycle, tu=t_tu, thread=t_seq,
                            reg=reg, source="copy",
                        )
                    continue
                actual = trace[producer].dst_value if producer >= 0 else 0
                base = trace.value_of_register_at(reg, spawn_pos)
                child.livein_actuals[reg] = (base, actual)
                if perfect:
                    child.livein_status[reg] = _HIT
                    vp.record(True)
                    if trace_on:
                        t_emit(
                            EV_PREDICT_HIT, t_cycle, tu=t_tu, thread=t_seq,
                            reg=reg, source="predicted",
                        )
                elif predict_nothing:
                    child.livein_status[reg] = _SYNC
                    if trace_on:
                        t_emit(
                            EV_PREDICT_SYNC, t_cycle, tu=t_tu, thread=t_seq,
                            reg=reg,
                        )
                else:
                    predicted = vp.predict(
                        pair.sp_pc, pair.cqip_pc, reg, base, lookahead
                    )
                    hit = predicted is not None and predicted == actual
                    vp.record(hit)
                    child.livein_status[reg] = _HIT if hit else _MISS
                    if trace_on:
                        t_emit(
                            EV_PREDICT_HIT if hit else EV_PREDICT_MISS,
                            t_cycle, tu=t_tu, thread=t_seq,
                            reg=reg, source="predicted",
                        )
                if (
                    injector is not None
                    and child.livein_status[reg] == _HIT
                    and injector.corrupt_livein(child.seq, reg)
                ):
                    # The delivered value is corrupted in flight: the
                    # consumer detects the mismatch and synchronises with
                    # the producer plus the recovery penalty.
                    child.livein_status[reg] = _MISS
                    self.stats.liveins_corrupted += 1
                    self.stats.faults_injected += 1
                    if trace_on:
                        t_emit(
                            EV_LIVEIN_CORRUPT, t_cycle, tu=t_tu, thread=t_seq,
                            reg=reg,
                        )
            if inst.dst is not None and inst.dst != 0:
                written.add(inst.dst)

    def _predict_liveins_cols(
        self, child: _Thread, pair: SpawnPair, spawn_pos: int
    ) -> None:
        """Event-core twin of :meth:`_predict_liveins`: one pass over the
        memoized live-ins of the child's scan window.

        :meth:`TraceColumns.livein_window` yields each live-in register
        once, with its producer, in the order the legacy scan discovers
        it, so predictor calls, fault draws and events keep the legacy
        order.  As there, a register-file copy is a free hit that skips
        the corruption check, and only table predictors count copies and
        extrapolate by ``lookahead``.  The perfect and none oracles'
        ``train`` is a no-op, so only table predictors keep the
        ``(base, actual)`` pairs that commit-time training replays.
        """
        vp = self.value_predictor
        injector = self.injector
        kind = self.config.value_predictor
        table = kind not in ("perfect", "none")
        perfect = kind == "perfect"
        trace_on = self.tracer.enabled
        if trace_on:
            t_emit = self.tracer.emit
            t_cycle = int(child.start_cycle)
            t_tu = child.tu.tu_id
            t_seq = child.seq
        lookahead = 1
        if table:
            # In-flight instances of the pair (the new one included) set
            # how far the recurrence must be projected forward.
            pair_key = pair.key()
            lookahead = max(
                sum(
                    1
                    for t in self._order
                    if t.pair is not None and t.pair.key() == pair_key
                ),
                1,
            )
        status = child.livein_status
        actuals = child.livein_actuals
        dst_values = self._cols.dst_value
        value_at = self.trace.value_of_register_at
        record = vp.record
        start = child.start
        end = min(child.join, start + self.config.livein_scan_cap)
        for reg, producer in self._cols.livein_window(start, end):
            if producer < spawn_pos:
                # Computed before the spawn fired: the register-file copy
                # at spawn delivers it for free.
                status[reg] = _HIT
                if table:
                    record(True)
                if trace_on:
                    t_emit(
                        EV_PREDICT_HIT, t_cycle, tu=t_tu, thread=t_seq,
                        reg=reg, source="copy",
                    )
                continue
            # spawn_pos <= producer < start: a value computed between the
            # SP and the CQIP, not yet known at spawn.
            if table:
                actual = dst_values[producer]
                base = value_at(reg, spawn_pos)
                actuals[reg] = (base, actual)
                predicted = vp.predict(
                    pair.sp_pc, pair.cqip_pc, reg, base, lookahead
                )
                state = (
                    _HIT if predicted is not None and predicted == actual
                    else _MISS
                )
                record(state == _HIT)
            elif perfect:
                state = _HIT
                record(True)
            else:
                state = _SYNC
            if trace_on:
                if state == _SYNC:
                    t_emit(
                        EV_PREDICT_SYNC, t_cycle, tu=t_tu, thread=t_seq,
                        reg=reg,
                    )
                else:
                    t_emit(
                        EV_PREDICT_HIT if state == _HIT else EV_PREDICT_MISS,
                        t_cycle, tu=t_tu, thread=t_seq,
                        reg=reg, source="predicted",
                    )
            if (
                state == _HIT
                and injector is not None
                and injector.corrupt_livein(child.seq, reg)
            ):
                # Corrupted in flight: the consumer synchronises with
                # the producer plus the recovery penalty.
                state = _MISS
                self.stats.liveins_corrupted += 1
                self.stats.faults_injected += 1
                if trace_on:
                    t_emit(
                        EV_LIVEIN_CORRUPT, t_cycle, tu=t_tu, thread=t_seq,
                        reg=reg,
                    )
            status[reg] = state

    def _prime_predictor(self) -> None:
        """Train the value-predictor tables from the profiling run.

        Replays up to ``prime_samples`` dynamic instances of every pair,
        feeding (spawn-time base, CQIP live-in) observations exactly as
        commit-time training would — the spawning pairs already come from
        this profile pass, so the hardware tables can be preset with it.
        The legacy core's oracle: it walks the ``DynInst`` view and never
        reads a passed sequence, so the equal-stats checks compare it
        against :func:`priming_sequence`, derived or from the cache.
        """
        trace = self.trace
        vp = self.value_predictor
        config = self.config
        reg_deps = trace.register_deps
        for sp_pc in self.pairs.spawning_points():
            for pair in self.pairs.alternatives(sp_pc):
                positions = trace.positions_of(pair.sp_pc)
                window = int(8 * max(pair.expected_distance, 32))
                taken = 0
                for s_pos in positions:
                    if taken >= config.prime_samples:
                        break
                    c_pos = trace.next_occurrence(
                        pair.cqip_pc, s_pos, min(len(trace), s_pos + window)
                    )
                    if c_pos is None:
                        continue
                    taken += 1
                    end = min(
                        len(trace),
                        c_pos + min(int(pair.expected_distance) + 1,
                                    config.livein_scan_cap),
                    )
                    written = set()
                    seen = set()
                    for pos in range(c_pos, end):
                        inst = trace[pos]
                        deps = reg_deps[pos]
                        for src_i, reg in enumerate(inst.srcs):
                            if reg == 0 or reg in written or reg in seen:
                                continue
                            producer = deps[src_i]
                            if producer >= c_pos or producer < s_pos:
                                continue
                            seen.add(reg)
                            base = trace.value_of_register_at(reg, s_pos)
                            actual = trace[producer].dst_value
                            vp.train(pair.sp_pc, pair.cqip_pc, reg, base, actual)
                        if inst.dst is not None and inst.dst != 0:
                            written.add(inst.dst)

    # ------------------------------------------------------------------
    # Completion.
    # ------------------------------------------------------------------

    def _finish(self, thread: _Thread) -> None:
        thread.finished = True
        self._running -= 1
        thread.finish_cycle = max(thread.last_commit, thread.start_cycle)
        for tu in thread.ghost_tus:
            tu.free_at = thread.finish_cycle
        thread.ghost_tus = []
        # Commit every leading finished thread, in program order.
        while self._order and self._order[0].finished:
            oldest = self._order.pop(0)
            commit_cycle = max(
                oldest.finish_cycle,
                self._last_commit_cycle + self.config.commit_latency,
            )
            self._last_commit_cycle = commit_cycle
            oldest.tu.free_at = commit_cycle
            # Retirement guard: every future probe on this unit is past
            # its commit cycle, so older booking entries are dead weight.
            # Fault injection can regress booking floors (see __init__),
            # so only healthy runs trim.
            if self.injector is None:
                oldest.tu.trim_bandwidth(int(commit_cycle))
            self.stats.threads_committed += 1
            self.stats.thread_sizes.append(oldest.executed)
            self.stats.busy_cycles += max(
                oldest.finish_cycle - oldest.start_cycle, 0
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    EV_THREAD_COMMIT,
                    int(commit_cycle),
                    tu=oldest.tu.tu_id,
                    thread=oldest.seq,
                    size=oldest.executed,
                )
            if oldest.pair is not None:
                vp = self.value_predictor
                for reg, (base, actual) in oldest.livein_actuals.items():
                    vp.train(
                        oldest.pair.sp_pc, oldest.pair.cqip_pc, reg, base, actual
                    )
            if self.config.collect_timeline:
                hits = sum(
                    1 for s in oldest.livein_status.values() if s == _HIT
                )
                self.stats.timeline.append(
                    ThreadRecord(
                        start_pos=oldest.start,
                        size=oldest.executed,
                        tu=oldest.tu.tu_id,
                        start_cycle=int(oldest.start_cycle),
                        finish_cycle=int(oldest.finish_cycle),
                        commit_cycle=int(commit_cycle),
                        pair=oldest.pair.key() if oldest.pair else None,
                        livein_hits=hits,
                        livein_misses=len(oldest.livein_status) - hits,
                    )
                )
            self.runtime.note_thread_size(
                oldest.pair, oldest.executed, int(commit_cycle)
            )


def simulate(
    trace: Trace,
    pairs: Optional[SpawnPairSet] = None,
    config: Optional[ProcessorConfig] = None,
    injector: Optional["FaultInjector"] = None,
    tracer=None,
    training: Optional[Sequence[tuple]] = None,
) -> SimulationStats:
    """Run one simulation (convenience wrapper).

    Pass an :class:`~repro.obs.events.EventTracer` as ``tracer`` to
    record the structured event stream; ``None`` (the default) keeps the
    zero-cost disabled path.  ``training`` is the run's
    :func:`priming_sequence`, when the caller already has it (say, from
    the artifact cache); the event core derives it when it is None, and
    the legacy core always derives its own.
    """
    return ClusteredProcessor(
        trace, pairs, config, injector, tracer, training
    ).run()


def priming_sequence(
    trace: Trace, pairs: SpawnPairSet, config: ProcessorConfig
) -> List[tuple]:
    """The value-predictor training sequence of a profiled run.

    Priming replays up to ``config.prime_samples`` dynamic instances of
    every pair.  A sample's training registers are the live-ins of its
    CQIP window (``TraceColumns.livein_pairs``, in the scan's discovery
    order, the window capped at ``config.livein_scan_cap``) whose
    producer lies at or after the spawn; each yields one
    ``(sp_pc, cqip_pc, reg, base, actual)`` entry, in the order the
    legacy :meth:`ClusteredProcessor._prime_predictor` trains them.

    The sequence is a pure function of the trace, the pair set and
    those two parameters, so it is memoized on the trace columns, and
    the memoized list itself is returned: callers must not mutate it.
    It does not depend on the predictor kind or table size.
    """
    cols = trace.columns
    cache_key = (
        config.prime_samples,
        config.livein_scan_cap,
        tuple(
            (p.sp_pc, p.cqip_pc, p.expected_distance)
            for sp in pairs.spawning_points()
            for p in pairs.alternatives(sp)
        ),
    )
    sequence = cols._prime_cache.get(cache_key)
    if sequence is not None:
        return sequence
    sequence = []
    record = sequence.append
    livein_pairs = cols.livein_pairs
    dst_values = cols.dst_value
    value_at = trace.value_of_register_at
    length = len(trace)
    for sp_pc in pairs.spawning_points():
        for pair in pairs.alternatives(sp_pc):
            positions = trace.positions_of(pair.sp_pc)
            window = int(8 * max(pair.expected_distance, 32))
            taken = 0
            for s_pos in positions:
                if taken >= config.prime_samples:
                    break
                c_pos = trace.next_occurrence(
                    pair.cqip_pc, s_pos, min(length, s_pos + window)
                )
                if c_pos is None:
                    continue
                taken += 1
                end = min(
                    length,
                    c_pos + min(int(pair.expected_distance) + 1,
                                config.livein_scan_cap),
                )
                for reg, producer in livein_pairs(c_pos, end):
                    if producer >= s_pos:
                        record((
                            pair.sp_pc, pair.cqip_pc, reg,
                            value_at(reg, s_pos), dst_values[producer],
                        ))
    cols._prime_cache[cache_key] = sequence
    return sequence


def single_thread_cycles(
    trace: Trace, config: Optional[ProcessorConfig] = None
) -> int:
    """Cycles of the single-threaded baseline under the same core model."""
    base = (config or ProcessorConfig()).single_threaded()
    return simulate(trace, SpawnPairSet([]), base).cycles
