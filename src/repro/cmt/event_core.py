"""Event-driven batch-advance simulator core (``sim_core="event"``).

The legacy core (:meth:`ClusteredProcessor.run` over
:meth:`ClusteredProcessor._advance`) schedules *every* fetch group
through a generic event loop, including the dead ones: a thread blocked
on a cross-thread value re-parks at its producer's next fetch cycle over
and over, so on dependence-heavy workloads most heap events are
zero-fetch polls (74% on gcc, 73% on li at paper scale).  This module
replaces that loop with a single batched run function over the trace's
struct-of-arrays columns (:mod:`repro.exec.columns`) that

1. **hoists every run-invariant local once** (trace columns, config
   scalars, booking rings, heap primitives) instead of once per fetch
   group, and keeps advancing the same thread inline while it is the
   only runnable one (no heap traffic at all in single-threaded
   stretches);
2. **parks blocked threads on a wakeup registry instead of polling**:
   a thread blocked on trace position ``p`` registers in
   ``proc._waiters[p]`` and is pushed back onto the heap by the advance
   that completes ``p`` — at exactly that advance's cycle; and
3. **jumps the clock**: with no pollers in the heap, popping the next
   event moves simulated time directly to the earliest scheduled wakeup
   (FU completion feeding a dependent fetch group, memory-latency
   expiry, forwarding delay, spawned-thread start).  The skipped span is
   recorded in ``proc.event_metrics`` and is observationally identical
   to ticking it: no architectural or timing state changes on cycles
   with no scheduled event.

Bit-identity with the legacy core
---------------------------------
The waiter wake cycle equals the legacy poll-resume cycle exactly.  In
the legacy loop a thread blocked on position ``p`` at cycle ``t`` parks
to ``max(t + 1, owner.fetch_cycle)``; when the poll runs, the owner of
``p`` always has its next advance strictly in the future (it either
advanced earlier in cycle ``t`` — heap order is ``(cycle, start)`` and
``owner.start <= p < thread.start`` — or is parked beyond ``t``), so
every poll lands exactly on an advance of ``p``'s current owner, and
ownership of ``p`` only changes during such advances.  The first poll
that finds ``completion[p]`` set is therefore the advance that set it,
which is precisely when the waiter registry wakes the thread.

Three situations break that argument, so the affected threads (or the
whole run) fall back to legacy-style poll parking, still batched and
hoisted, same results by construction:

- **blocked at a spawning point**: the blocked instruction's spawn is
  re-attempted on every poll, and those attempts have side effects —
  a thread unit can free up between polls, counters advance, and under
  ``reassign`` the candidate evaluation is cycle-dependent.  Such
  threads poll; their park target resolves through sleeping waiters to
  the blocking chain's live root, whose clock equals the legacy owner's.
  A failed attempt's outcome is memoized against an *epoch* of the
  spawn-relevant machine state, and while the memo holds the poller
  **sleeps off the heap entirely**: the legacy core would poll exactly
  once per event of the chain's live root, bumping the same counter
  each time, so the missed polls are replayed in bulk from the root's
  event-count delta when a wake trigger fires (the blocked position
  completes, the epoch moves, the root stops generating events, or —
  for "no free unit" denials, whose memo lapses with the clock — the
  root's first event at or past the memoized ``free_at`` bound).  The
  one observable the replay does not reproduce is the livelock
  watchdog's zero-progress counter —
  virtual polls do not bump it — so a genuinely livelocked run is
  caught by the empty-heap check below (or by real events) rather than
  at the exact legacy poll count; ``SimulationStats`` is unaffected.
- **fault injection** (whole run): polls charge
  :meth:`FaultInjector.forward_delay` per probe and blackout windows
  must be re-checked every poll.
- **pair-removal policies** (``removal_cycles``, whole run): polls
  sample the "executing alone" condition, so skipping them would
  under-count alone cycles.

The livelock watchdog degrades gracefully: besides the legacy
zero-progress counter, an empty heap with unfinished threads (a wait
cycle no completion can break) raises ``InvariantViolation``
immediately instead of spinning.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List

from repro.cmt.thread_unit import RING_WINDOW
from repro.errors import InvariantViolation, SimulationTimeout
from repro.exec.columns import (
    F_BRANCH,
    F_LOAD,
    F_STORE,
    F_TAKEN,
    F_UNCOND,
    LDST_INDEX,
)
from repro.isa.instructions import FU_LIMITS
from repro.obs.events import EV_THREAD_START

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cmt.processor import ClusteredProcessor
    from repro.cmt.stats import SimulationStats

_INFINITY = float("inf")
_RING_MASK = RING_WINDOW - 1


def run_event(proc: "ClusteredProcessor") -> "SimulationStats":
    """Simulate ``proc``'s full trace with the event-driven batched core.

    Behaviourally identical to :meth:`ClusteredProcessor.run` over the
    legacy core; only wall-clock time and ``proc.event_metrics``
    differ.

    Returns:
        The run's finalized :class:`SimulationStats`.
    """
    trace = proc.trace
    if len(trace) == 0:
        return proc.stats
    config = proc.config
    cols = proc._cols
    completion = proc._completion
    injector = proc.injector
    has_injector = injector is not None
    removal_on = config.removal_cycles is not None
    # Wakeup-registry parking is only bit-identical when polls carry no
    # side effects (module docstring); otherwise keep legacy-style
    # poll parking inside the batched loop.
    use_waiters = not has_injector and not removal_on
    waiters: Dict[int, List] = proc._waiters

    root = proc._make_thread(
        start=0, join=len(trace), tu=proc._tus[0], start_cycle=0, pair=None
    )
    proc._tus[0].free_at = _INFINITY  # occupied by the root
    proc._order.append(root)
    proc._running += 1
    proc._push(root)
    tracer = proc.tracer
    if tracer.enabled:
        tracer.emit(EV_THREAD_START, 0, tu=0, thread=root.seq, root=True)

    budget = config.cycle_budget
    stall_limit = config.livelock_threshold
    stalled_events = 0
    heap = proc._heap
    heappop = heapq.heappop
    heappush = heapq.heappush
    stats = proc.stats
    tus = proc._tus
    trace_on = tracer.enabled

    # Run-invariant hoists (per fetch group in the legacy core).
    pc_col = cols.pc
    flags_col = cols.flags
    fu_of = cols.fu_of
    lat_of = cols.lat_of
    addr_col = cols.addr
    mem_dep_col = cols.mem_dep
    slots_of = cols.operand_slots()
    spawn_pcs = proc._spawn_pcs
    fu_limits = FU_LIMITS
    ring_window = RING_WINDOW
    ring_mask = _RING_MASK
    fetch_width = config.fetch_width
    rob_size = config.rob_size
    issue_width = config.issue_width
    perfect_memory = config.perfect_memory
    forward_latency = config.forward_latency
    mispredict_penalty = config.mispredict_penalty
    recovery = config.misprediction_recovery
    # Live-in status codes (runtime import: processor imports this module).
    from repro.cmt.processor import _HIT, _MISS
    coactive = config.removal_coactive_threshold
    order = proc._order
    forward_rate = injector.forward_rate if has_injector else 0
    try_spawn = proc._try_spawn
    finish = proc._finish
    owner_of = proc._owner_of
    track_alone = proc._track_alone

    # The L1 and gshare hot paths are inlined into the fetch-group loop
    # (their counters cached in locals, flushed on unit switch and on
    # exit); gshare only when it is the configured predictor.  Geometry
    # and table shapes are identical across units, so they hoist once.
    inline_gshare = config.branch_predictor == "gshare"
    l1_proto = tus[0].l1
    l1_block_words = l1_proto.block_words
    l1_n_sets = l1_proto.n_sets
    l1_hit_lat = l1_proto.hit_latency
    l1_miss_lat = l1_proto.miss_latency
    l1_assoc = l1_proto.assoc
    g_mask = tus[0].gshare.mask

    # Per-unit hoists, cached across consecutive advances on one unit.
    cur_tu = None
    issue_stamp: List[int] = []
    issue_count: List[int] = []
    fu_stamps: List[List[int]] = []
    fu_counts: List[List[int]] = []
    l1_sets: Dict[int, List[int]] = {}
    l1_acc = 0
    l1_miss = 0
    g_counters: List[int] = []
    g_history = 0
    g_pred = 0
    g_hits = 0
    note_install = None
    gshare_update = None
    book_issue = None
    thread_seq = 0

    # Epochs of the machine state parked pollers memoize against.
    # ``epoch`` covers the spawn-relevant state (unit occupancy, thread
    # order, pair bookkeeping): a failed spawn attempt's outcome cannot
    # change while it stands, so it moves only on successful spawns,
    # ghosts, and thread retirements.  ``chain_epoch`` additionally
    # moves on waiter wakes — a wake cannot change a spawn outcome, but
    # it can shorten a blocking chain, so the cached chain roots lapse.
    epoch = 0
    chain_epoch = 0

    # Sleeping pollers.  A parked poller whose memoized spawn outcome is
    # cycle-independent (kinds 0/1/2) stops polling altogether: while the
    # epoch stands, the legacy core would poll exactly once per event of
    # the poller's (fixed) chain root, bumping the same stats counter
    # each time.  So the poller leaves the heap, and the missed polls are
    # bulk-replayed from the root's event-count delta when a wake trigger
    # fires: the blocked position completes (waiter registry), an epoch
    # or chain-epoch bump invalidates the memo or the cached root, or
    # the root itself stops generating events (it blocks or sleeps).
    # The re-materialized heap entry lands exactly where the legacy
    # poller's pending entry sits — the root's next event cycle (or the
    # current event's cycle when the trigger fires inside the root's own
    # event), keyed by the poller's start — so sub-cycle ordering is
    # preserved.  Kind-3 memos ("no free unit") are cycle-dependent —
    # they lapse once the clock reaches the recorded ``free_at`` — so
    # their sleepers additionally register in ``timed_sleepers``: the
    # root's own event loop wakes them at its first event at or past
    # that cycle, which is exactly the legacy poll where the memo
    # lapses (unit ``free_at`` values cannot move while the epoch
    # stands, so the recorded bound stays authoritative).
    # Sleepers indexed by their chain root, so root-scoped wakes pop one
    # dict entry instead of scanning every sleeper.  Entries woken
    # through other triggers leave stale list slots behind; the
    # ``poll_sleeping`` guard skips them and epoch bumps clear the dict.
    sleepers_by_root: Dict = {}
    timed_sleepers: List = []
    poller_sleeps = 0
    sleeper_wakes = 0
    replayed_polls = 0

    def _wake_sleeper(s, cb, cstart):
        """Re-materialize sleeper ``s``'s pending legacy heap entry.

        ``(cb, cstart)`` is the heap key of the event the wake trigger
        fired in.  The sleeper's virtual pending entry sits at its
        root's latest event cycle if the virtual poll for that event
        has not fired yet — i.e. the root popped at this very cycle and
        the poll's heap key ``(cb, s.start)`` orders after the current
        event — in which case that poll now runs for real (excluded
        from the replay); otherwise the entry sits at the root's next
        event.
        """
        nonlocal replayed_polls, sleeper_wakes
        sleep_root = s.poll_root
        missed = sleep_root.event_count - s.poll_sleep_base
        if missed > 0 and sleep_root.last_pop == cb and cstart < s.start:
            missed -= 1
            target = cb
        else:
            target = sleep_root.fetch_cycle
        if missed > 0:
            kind = s.poll_memo[1]
            if kind == 1:
                stats.spawns_skipped_existing += missed
            elif kind == 2:
                stats.spawns_rejected_order += missed
            elif kind == 3:
                # Every missed poll ran strictly below the memoized
                # ``free_at`` bound (the root's event loop wakes timed
                # sleepers at its first event at or past it), so each
                # one was a denial.
                stats.spawns_denied_no_tu += missed
            replayed_polls += missed
        s.poll_sleeping = False
        s.waiting_on = -1
        s.fetch_cycle = target
        heappush(heap, (target, s.start, s))
        sleeper_wakes += 1

    def wake_all_sleepers(cb, cstart):
        """Wake every sleeping poller (an epoch or chain-epoch bump)."""
        for lst in sleepers_by_root.values():
            for s in lst:
                if s.poll_sleeping:
                    _wake_sleeper(s, cb, cstart)
        sleepers_by_root.clear()

    def wake_rooted_sleepers(cur, cb, cstart):
        """Wake only the sleepers rooted at ``cur`` (which stops
        generating events: it blocks or goes to sleep itself), leaving
        the rest asleep."""
        lst = sleepers_by_root.pop(cur, None)
        if lst is not None:
            for s in lst:
                if s.poll_sleeping:
                    _wake_sleeper(s, cb, cstart)

    # Metrics (never fed into SimulationStats: pure observability).
    events_processed = 0
    inline_advances = 0
    cycles_skipped = 0
    clock_jumps = 0
    max_jump = 0
    waiter_wakes = 0
    advance_wakes = 0
    park_wakes = 0
    stall_reg = 0
    stall_mem = 0
    prev_cycle = 0

    try:
        while heap:
            cycle, _hstart, thread = heappop(heap)
            if thread.finished or cycle != thread.fetch_cycle:
                continue  # stale heap entry
            while True:
                # One iteration = one fetch-group advance of ``thread``.
                # The loop keeps going inline while this thread is the
                # only runnable one; everything else breaks back to the
                # heap pop above.
                if budget is not None and cycle > budget:
                    raise SimulationTimeout(
                        "cycle budget exceeded",
                        cycle=cycle,
                        budget=budget,
                        committed=proc.stats.threads_committed,
                    )
                events_processed += 1
                thread.event_count += 1
                thread.last_pop = cycle
                if timed_sleepers:
                    # Wake "no free unit" sleepers rooted here whose
                    # memoized ``free_at`` bound the clock has reached:
                    # this event's virtual poll is the first legacy poll
                    # at which the memo lapses, so it runs for real.
                    stale = False
                    for s in timed_sleepers:
                        if not s.poll_sleeping:
                            stale = True
                        elif (
                            s.poll_root is thread
                            and cycle >= s.poll_memo[2]
                        ):
                            _wake_sleeper(s, cycle, thread.start)
                            stale = True
                    if stale:
                        timed_sleepers[:] = [
                            s for s in timed_sleepers if s.poll_sleeping
                        ]
                jump = cycle - prev_cycle
                if jump > 0:
                    if jump > 1:
                        cycles_skipped += jump - 1
                        clock_jumps += 1
                        if jump - 1 > max_jump:
                            max_jump = jump - 1
                    prev_cycle = cycle

                pop_cycle = cycle
                poll_pos = thread.poll_pos
                if poll_pos >= 0:
                    # Slim poll of a spawn-PC-parked thread (use_waiters
                    # runs only).  The legacy loop re-runs the whole
                    # blocked fetch group on every poll, but the only
                    # side effects are the spawn re-attempt and its
                    # counters — and a failed attempt's outcome cannot
                    # change while the epoch stands (candidate tables
                    # and the blocked instruction are fixed; unit
                    # occupancy, the thread order's tail, and this
                    # thread's join only move on epoch bumps), except
                    # that a "no free unit" denial flips once the clock
                    # reaches the earliest ``free_at`` recorded with it.
                    # So replay the memoized outcome (same counter, same
                    # result) and only re-run ``_try_spawn`` when the
                    # memo lapses.
                    if completion[poll_pos] is None:
                        stalled_events += 1
                        if (
                            stall_limit is not None
                            and stalled_events > stall_limit
                        ):
                            raise InvariantViolation(
                                "no forward progress (livelock watchdog)",
                                cycle=cycle,
                                thread=thread.seq,
                                stalled_events=stalled_events,
                            )
                        memo = thread.poll_memo
                        if (
                            memo is not None
                            and memo[0] == epoch
                            and (memo[1] != 3 or cycle < memo[2])
                        ):
                            kind = memo[1]
                            if kind == 1:
                                stats.spawns_skipped_existing += 1
                            elif kind == 2:
                                stats.spawns_rejected_order += 1
                            elif kind == 3:
                                stats.spawns_denied_no_tu += 1
                        else:
                            cpos = thread.cursor
                            before_mut = (
                                stats.spawns + stats.control_misspeculations
                            )
                            before_ex = stats.spawns_skipped_existing
                            before_or = stats.spawns_rejected_order
                            before_no = stats.spawns_denied_no_tu
                            try_spawn(thread, cpos, pc_col[cpos], cycle)
                            if (
                                stats.spawns + stats.control_misspeculations
                                != before_mut
                            ):
                                epoch += 1
                                chain_epoch += 1
                                thread.poll_memo = None
                                if sleepers_by_root:
                                    wake_all_sleepers(cycle, thread.start)
                            elif stats.spawns_denied_no_tu != before_no:
                                min_free = min(t.free_at for t in tus)
                                thread.poll_memo = (epoch, 3, min_free)
                            elif stats.spawns_rejected_order != before_or:
                                thread.poll_memo = (epoch, 2, 0)
                            elif stats.spawns_skipped_existing != before_ex:
                                thread.poll_memo = (epoch, 1, 0)
                            else:
                                thread.poll_memo = (epoch, 0, 0)
                        root = thread.poll_root
                        if (
                            thread.poll_epoch != chain_epoch
                            or root is None
                            or root.finished
                            or root.waiting_on >= 0
                        ):
                            root = owner_of(poll_pos)
                            while root is not None and root.waiting_on >= 0:
                                root = owner_of(root.waiting_on)
                            thread.poll_root = root
                            thread.poll_epoch = chain_epoch
                        memo = thread.poll_memo
                        if root is not None and memo is not None:
                            # Memoized outcome with a live chain root:
                            # go to sleep.  No heap entry at all — the
                            # missed polls (one per root event, legacy
                            # cadence) are replayed in bulk when a wake
                            # trigger fires.  The waiter registration
                            # and ``waiting_on`` make both the
                            # completion wake and the chain walk-through
                            # see this thread like any sleeping waiter.
                            # Kind-3 memos lapse with the clock, so
                            # those sleepers also arm the root's timed
                            # check (the sleep always starts below the
                            # bound: a fresh denial's ``min_free``
                            # exceeds the denying cycle, and the replay
                            # path just validated ``cycle < memo[2]``).
                            if memo[1] == 3:
                                timed_sleepers.append(thread)
                            thread.poll_sleeping = True
                            thread.poll_sleep_base = root.event_count
                            thread.waiting_on = poll_pos
                            if thread.poll_registered != poll_pos:
                                thread.poll_registered = poll_pos
                                lst = waiters.get(poll_pos)
                                if lst is None:
                                    waiters[poll_pos] = [thread]
                                else:
                                    lst.append(thread)
                            lst = sleepers_by_root.get(root)
                            if lst is None:
                                sleepers_by_root[root] = [thread]
                            else:
                                lst.append(thread)
                            poller_sleeps += 1
                            if sleepers_by_root:
                                # This thread stops generating events:
                                # sleepers rooted at it must re-derive
                                # their chain root.
                                wake_rooted_sleepers(
                                    thread, cycle, thread.start
                                )
                            break
                        stall_to = cycle + 1
                        if root is not None and root.fetch_cycle > stall_to:
                            stall_to = root.fetch_cycle
                        thread.fetch_cycle = stall_to
                        heappush(heap, (stall_to, thread.start, thread))
                        park_wakes += 1
                        break
                    thread.poll_pos = -1
                    thread.poll_root = None
                tu = thread.tu
                if has_injector:
                    dark_until = tu.dark_until(cycle)
                    if dark_until is not None:
                        proc._on_blackout(thread, cycle, dark_until)
                        stalled_events += 1
                        if stall_limit is not None and stalled_events > stall_limit:
                            raise InvariantViolation(
                                "no forward progress (livelock watchdog)",
                                cycle=cycle,
                                thread=thread.seq,
                                stalled_events=stalled_events,
                            )
                        if not thread.finished:
                            heappush(
                                heap,
                                (thread.fetch_cycle, thread.start, thread),
                            )
                            park_wakes += 1
                        break

                # "Executing alone" (pair-removal policies only).
                alone = False
                if removal_on and thread.pair is not None and len(order) > 1:
                    alone = proc._running - 1 < coactive

                commit_ring = thread.commit_ring
                local_index = thread.local_index
                # Ring slot tracked incrementally: one modulo per advance
                # instead of two per instruction.
                ring_slot = local_index % rob_size
                pos = thread.cursor
                # ROB full at the group head: wait for the oldest commit.
                if local_index >= rob_size:
                    blocker = commit_ring[ring_slot]
                    if blocker > cycle:
                        cycle = blocker

                # begin_group, inlined: the booking floor only rises.
                floor = cycle + 1
                if floor > tu._ring_base:
                    tu._ring_base = floor
                ring_base = tu._ring_base
                if tu is not cur_tu:
                    if cur_tu is not None:
                        # Write the outgoing unit's cached counters back
                        # before caching the incoming unit's.
                        out_l1 = cur_tu.l1
                        out_l1.accesses = l1_acc
                        out_l1.misses = l1_miss
                        if inline_gshare:
                            out_g = cur_tu.gshare
                            out_g.history = g_history
                            out_g.predictions = g_pred
                            out_g.hits = g_hits
                    cur_tu = tu
                    issue_stamp = tu._issue_stamp
                    issue_count = tu._issue_count
                    fu_stamps = tu._fu_stamp
                    fu_counts = tu._fu_count
                    l1 = tu.l1
                    l1_sets = l1._sets
                    l1_acc = l1.accesses
                    l1_miss = l1.misses
                    if inline_gshare:
                        gshare = tu.gshare
                        g_counters = gshare.counters
                        g_history = gshare.history
                        g_pred = gshare.predictions
                        g_hits = gshare.hits
                    note_install = tu.note_install
                    gshare_update = tu.gshare.update
                    book_issue = tu.book_issue_idx
                spilled = bool(tu._issue_overflow or tu._fu_overflow)
                if trace_on:
                    thread_seq = thread.seq

                start = thread.start
                join = thread.join
                last_commit = thread.last_commit
                executed = 0
                next_fetch = cycle + 1
                spawn_penalty = 0
                fetched = 0
                blocked_pos = -1
                blocked_mem = False
                while fetched < fetch_width and pos < join:
                    if local_index >= rob_size:
                        blocker = commit_ring[ring_slot]
                        if blocker > cycle:
                            break  # the rest of the group waits for ROB space
                    flags = flags_col[pos]
                    pc = pc_col[pos]

                    # Spawn attempt at a spawning point (checked at fetch).
                    if pc in spawn_pcs:
                        before_mut = (
                            stats.spawns + stats.control_misspeculations
                        )
                        spawn_penalty += try_spawn(thread, pos, pc, cycle)
                        if (
                            stats.spawns + stats.control_misspeculations
                            != before_mut
                        ):
                            epoch += 1
                            chain_epoch += 1
                            if sleepers_by_root:
                                wake_all_sleepers(pop_cycle, start)
                        join = thread.join  # a successful spawn shrinks it

                    # Operand readiness.
                    ready = cycle + 1  # decode/rename stage
                    blocked_on = None
                    for dep_col, reg in slots_of[pc]:
                        producer = dep_col[pos]
                        if producer < 0:
                            continue
                        if producer >= start:
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
                            # _external_value_time, unrolled.
                            status = thread.livein_status.get(reg)
                            if status == _HIT:
                                when = thread.start_cycle
                            else:
                                when = completion[producer]
                                if when is None:
                                    blocked_on = producer
                                    break
                                when += forward_latency
                                if forward_rate:
                                    when += injector.forward_delay(
                                        thread.seq, reg, producer
                                    )
                                if status == _MISS:
                                    when += recovery
                        if when > ready:
                            ready = when
                    if blocked_on is None and flags & F_LOAD:
                        producer = mem_dep_col[pos]
                        if producer >= 0 and not (
                            perfect_memory and producer < start
                        ):
                            when = completion[producer]
                            if when is None and producer < start:
                                blocked_on = producer
                                blocked_mem = True
                            elif when is None:
                                raise InvariantViolation(
                                    "internal store not yet simulated",
                                    cycle=cycle,
                                    thread=thread.seq,
                                    position=pos,
                                    producer=producer,
                                )
                            else:
                                if producer < start:
                                    when += forward_latency
                                if when > ready:
                                    ready = when
                    if blocked_on is not None:
                        blocked_pos = blocked_on
                        break

                    # Execution latency and resources.
                    if flags & F_LOAD:
                        # L1Cache.access, unrolled (LRU within the set,
                        # write-allocate fills); a traced miss records
                        # the line it installs.
                        block = addr_col[pos] // l1_block_words
                        set_index = block % l1_n_sets
                        tag = block // l1_n_sets
                        ways = l1_sets.get(set_index)
                        if ways is None:
                            ways = l1_sets[set_index] = []
                        l1_acc += 1
                        if tag in ways:
                            if ways[0] != tag:
                                ways.remove(tag)
                                ways.insert(0, tag)
                            latency = 1 + l1_hit_lat
                        else:
                            l1_miss += 1
                            ways.insert(0, tag)
                            if len(ways) > l1_assoc:
                                ways.pop()
                            latency = 1 + l1_miss_lat
                            if trace_on:
                                note_install(
                                    cycle, thread_seq, addr_col[pos], False
                                )
                        fu = LDST_INDEX
                    elif flags & F_STORE:
                        block = addr_col[pos] // l1_block_words
                        set_index = block % l1_n_sets
                        tag = block // l1_n_sets
                        ways = l1_sets.get(set_index)
                        if ways is None:
                            ways = l1_sets[set_index] = []
                        l1_acc += 1
                        if tag in ways:
                            if ways[0] != tag:
                                ways.remove(tag)
                                ways.insert(0, tag)
                        else:
                            l1_miss += 1
                            ways.insert(0, tag)
                            if len(ways) > l1_assoc:
                                ways.pop()
                            if trace_on:
                                note_install(
                                    cycle, thread_seq, addr_col[pos], True
                                )
                        latency = 1
                        fu = LDST_INDEX
                    else:
                        fu = fu_of[pc]
                        latency = lat_of[pc]
                    # Inline ring booking, including the probe-forward
                    # loop for contended slots; only overflow spills and
                    # beyond-window probes take the out-of-line call.
                    # (Probes below the window base are fine: the stamp
                    # check disambiguates the aliased slot, exactly as
                    # in ``book_issue_idx``.  Overflow entries created
                    # mid-group sit at or beyond ``ring_base + window``,
                    # so a ``spilled`` check at group start stays valid
                    # for every in-window probe of the group.)
                    if not spilled and ready - ring_base < ring_window:
                        limit = fu_limits[fu]
                        fstamp = fu_stamps[fu]
                        fcount = fu_counts[fu]
                        issue = ready
                        while True:
                            slot = issue & ring_mask
                            used = (
                                issue_count[slot]
                                if issue_stamp[slot] == issue
                                else 0
                            )
                            busy = (
                                fcount[slot] if fstamp[slot] == issue else 0
                            )
                            if used < issue_width and busy < limit:
                                if used:
                                    issue_count[slot] = used + 1
                                else:
                                    issue_stamp[slot] = issue
                                    issue_count[slot] = 1
                                if busy:
                                    fcount[slot] = busy + 1
                                else:
                                    fstamp[slot] = issue
                                    fcount[slot] = 1
                                break
                            issue += 1
                            if issue - ring_base >= ring_window:
                                issue = book_issue(issue, fu)
                                break
                    else:
                        issue = book_issue(ready, fu)
                    done = issue + latency
                    completion[pos] = done
                    # Wake every thread waiting on this position, at this
                    # advance's cycle (the legacy poll-resume cycle).
                    if waiters and pos in waiters:
                        # A wake can shorten pollers' blocking chains, so
                        # cached chain roots lapse (spawn memos survive:
                        # a wake cannot change a spawn outcome).
                        chain_epoch += 1
                        for waiter in waiters.pop(pos):
                            if waiter.waiting_on != pos:
                                # Stale entry: a sleeping poller woken
                                # earlier leaves its registration behind.
                                continue
                            if waiter.poll_sleeping:
                                # Its root is this thread (any chain
                                # change would have woken it already),
                                # so it wakes at this advance's cycle
                                # and its poll finds the completion.
                                _wake_sleeper(waiter, pop_cycle, start)
                                continue
                            waiter.waiting_on = -1
                            waiter.fetch_cycle = pop_cycle
                            heappush(heap, (pop_cycle, waiter.start, waiter))
                            waiter_wakes += 1
                        if sleepers_by_root:
                            wake_all_sleepers(pop_cycle, start)

                    if done > last_commit:
                        last_commit = done
                    commit_ring[ring_slot] = last_commit
                    local_index += 1
                    ring_slot += 1
                    if ring_slot == rob_size:
                        ring_slot = 0
                    executed += 1
                    pos += 1
                    fetched += 1

                    # Control flow shapes the fetch group.
                    if flags & F_BRANCH:
                        if inline_gshare:
                            # GsharePredictor.update, unrolled.
                            taken = flags & F_TAKEN != 0
                            index = (pc ^ g_history) & g_mask
                            counter = g_counters[index]
                            if taken:
                                if counter < 3:
                                    g_counters[index] = counter + 1
                                g_history = ((g_history << 1) | 1) & g_mask
                            else:
                                if counter > 0:
                                    g_counters[index] = counter - 1
                                g_history = (g_history << 1) & g_mask
                            g_pred += 1
                            if (counter >= 2) == taken:
                                g_hits += 1
                                if taken:
                                    break  # fetch stops at a taken branch
                            else:
                                next_fetch = done + mispredict_penalty
                                break
                        else:
                            correct = gshare_update(pc, flags & F_TAKEN != 0)
                            if not correct:
                                next_fetch = done + mispredict_penalty
                                break
                            if flags & F_TAKEN:
                                break  # fetch stops at the first taken branch
                    elif flags & F_UNCOND:
                        break  # unconditional transfers end the group too

                if blocked_pos >= 0:
                    # Producer thread has not simulated that position yet.
                    thread.cursor = pos
                    thread.local_index = local_index
                    thread.last_commit = last_commit
                    thread.executed += executed
                    if blocked_mem:
                        stall_mem += 1
                    else:
                        stall_reg += 1
                    stalled_events += 1
                    if stall_limit is not None and stalled_events > stall_limit:
                        raise InvariantViolation(
                            "no forward progress (livelock watchdog)",
                            cycle=cycle,
                            thread=thread.seq,
                            stalled_events=stalled_events,
                        )
                    if use_waiters and pc not in spawn_pcs:
                        # Sleep until the producing advance completes the
                        # position; no polling in between.  Only safe
                        # when the blocked instruction is not a spawning
                        # point — a spawn PC re-attempts its spawn on
                        # every poll, and those attempts have side
                        # effects (a unit can free up between polls).
                        thread.waiting_on = blocked_pos
                        lst = waiters.get(blocked_pos)
                        if lst is None:
                            waiters[blocked_pos] = [thread]
                        else:
                            lst.append(thread)
                        if sleepers_by_root:
                            # This thread stops generating events, so
                            # sleepers rooted at it resume polling and
                            # re-derive their chain root.
                            wake_rooted_sleepers(thread, pop_cycle, start)
                    else:
                        # Poll park, exactly as the legacy core: the
                        # owner's clock bounds ours from below.  A
                        # sleeping owner's clock is frozen at its
                        # block cycle, but in the legacy loop it
                        # would be polling the next advance of its own
                        # blocking chain's live root — so walk the chain
                        # to that root, whose clock is the same value.
                        owner = owner_of(blocked_pos)
                        while owner is not None and owner.waiting_on >= 0:
                            owner = owner_of(owner.waiting_on)
                        stall_to = max(
                            thread.fetch_cycle + 1,
                            owner.fetch_cycle
                            if owner is not None
                            else cycle + 1,
                        )
                        thread.fetch_cycle = stall_to
                        if use_waiters:
                            # Spawn-PC block: later polls take the slim
                            # replay path above.
                            thread.poll_pos = blocked_pos
                            thread.poll_memo = None
                            thread.poll_root = owner
                            thread.poll_epoch = chain_epoch
                        if removal_on:
                            track_alone(thread, alone, stall_to - cycle)
                        heappush(heap, (stall_to, thread.start, thread))
                        park_wakes += 1
                    break

                thread.cursor = pos
                thread.local_index = local_index
                thread.last_commit = last_commit
                thread.executed += executed
                floor = cycle + 1 + spawn_penalty
                if next_fetch < floor:
                    next_fetch = floor
                thread.fetch_cycle = next_fetch
                proc._executed_total += fetched
                if fetched:
                    stalled_events = 0
                else:
                    stalled_events += 1
                    if stall_limit is not None and stalled_events > stall_limit:
                        raise InvariantViolation(
                            "no forward progress (livelock watchdog)",
                            cycle=cycle,
                            thread=thread.seq,
                            stalled_events=stalled_events,
                        )
                if removal_on:
                    track_alone(thread, alone, next_fetch - cycle)
                if pos >= join:
                    # Retirement frees the unit and reshapes the thread
                    # order (and may revive a folded predecessor), all
                    # spawn-relevant: move both epochs.
                    epoch += 1
                    chain_epoch += 1
                    if sleepers_by_root:
                        # Before ``finish`` mutates the order: a sleeper
                        # rooted here still sees this thread live.
                        wake_all_sleepers(pop_cycle, start)
                    finish(thread)
                    break
                if heap:
                    head = heap[0]
                    if head[0] < next_fetch or (
                        head[0] == next_fetch and head[1] < thread.start
                    ):
                        # Another event is due first: back to the heap.
                        heappush(heap, (next_fetch, thread.start, thread))
                        advance_wakes += 1
                        break
                # Sole runnable thread: advance inline, no heap traffic.
                cycle = next_fetch
                inline_advances += 1

        if proc._running > 0:
            # Every remaining thread waits on a completion nothing will
            # produce: report immediately instead of spinning the legacy
            # zero-progress counter up to its threshold.
            waiting = sum(len(lst) for lst in waiters.values())
            raise InvariantViolation(
                "wakeup heap empty with unfinished threads (livelock)",
                running=proc._running,
                waiting=waiting,
                cycle=prev_cycle,
            )
    finally:
        if cur_tu is not None:
            out_l1 = cur_tu.l1
            out_l1.accesses = l1_acc
            out_l1.misses = l1_miss
            if inline_gshare:
                out_g = cur_tu.gshare
                out_g.history = g_history
                out_g.predictions = g_pred
                out_g.hits = g_hits
        proc.event_metrics = {
            "sim_core": "event",
            "batched_waiters": use_waiters,
            "events_processed": events_processed,
            "inline_advances": inline_advances,
            "cycles_skipped": cycles_skipped,
            "clock_jumps": clock_jumps,
            "max_jump": max_jump,
            "wakeups": {
                "advance": advance_wakes,
                "waiter": waiter_wakes,
                "park_poll": park_wakes,
                "sleeper": sleeper_wakes,
            },
            "poller_sleeps": poller_sleeps,
            "replayed_polls": replayed_polls,
            "stalls": {
                "reg_dep": stall_reg,
                "mem_dep": stall_mem,
            },
        }

    return proc._finalize_stats()
