"""Per-thread-unit resources: branch predictor, L1 cache, issue bandwidth.

A thread unit is one cluster of the processor; threads are assigned to a
unit for their whole life, and the unit's predictor/cache state persists
across the threads that run on it (paper Section 4.1).

Issue/FU bandwidth is tracked two ways:

- :meth:`book_issue_legacy` keeps the original unbounded
  ``cycle -> count`` / ``(fu, cycle) -> count`` dictionaries (the
  reference core).
- :meth:`book_issue` / :meth:`book_issue_idx` use fixed-size ring
  buffers over a sliding cycle window (the event core's hot path —
  fault-injected runs included, since booking floors stay monotone
  across blackout restarts and spawn-retry delays):
  per probed cycle the ring slot is ``cycle % window`` and a stamp
  records which cycle the slot's count belongs to, so stale slots cost
  nothing to reclaim.  Bookings beyond the window spill into small
  overflow dicts (rare: only very long FU backlogs reach that far).
  The window base only moves forward (``begin_group``), which
  guarantees at most one live cycle can map to a slot at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.cmt.config import ProcessorConfig
from repro.isa.instructions import FU_CLASSES, FU_COUNT, FU_INDEX, FU_LIMITS, FuClass
from repro.obs.events import EV_CACHE_INSTALL, NULL_TRACER
from repro.predictors.branch import make_branch_predictor
from repro.mem.l1 import L1Cache

#: Sliding-window size (cycles) of the ring-buffer issue tracker.  A
#: power of two so the slot index is a mask; large enough that only
#: pathological FU backlogs (> 1024 cycles of queueing from one fetch
#: group's floor) ever touch the overflow dicts.
RING_WINDOW = 1024
_RING_MASK = RING_WINDOW - 1


class ThreadUnit:
    """Execution resources of one cluster."""

    def __init__(self, tu_id: int, config: ProcessorConfig):
        self.tu_id = tu_id
        self.config = config
        #: Hoisted from the (frozen) config for the booking hot path.
        self.issue_width = config.issue_width
        self.gshare = make_branch_predictor(
            config.branch_predictor, config.branch_history_bits
        )
        self.l1 = L1Cache(
            size_kb=config.l1_size_kb,
            assoc=config.l1_assoc,
            block_words=config.l1_block_words,
            hit_latency=config.l1_hit_latency,
            miss_latency=config.l1_miss_latency,
        )
        #: cycle -> instructions issued that cycle (issue-width budget;
        #: legacy core only).
        self._issue_used: Dict[int, int] = {}
        #: (fu class, cycle) -> units of that class busy issuing that
        #: cycle (legacy core only).
        self._fu_used: Dict[Tuple[FuClass, int], int] = {}
        # Ring-buffer tracker (event core): per-slot stamps say which
        # cycle the count belongs to, so advancing the window is free.
        self._ring_base = 0
        self._issue_stamp: List[int] = [-1] * RING_WINDOW
        self._issue_count: List[int] = [0] * RING_WINDOW
        self._fu_stamp: List[List[int]] = [
            [-1] * RING_WINDOW for _ in FU_CLASSES
        ]
        self._fu_count: List[List[int]] = [
            [0] * RING_WINDOW for _ in FU_CLASSES
        ]
        #: cycle -> issue count for cycles beyond the ring window.
        self._issue_overflow: Dict[int, int] = {}
        #: (fu ordinal, cycle) -> count for cycles beyond the window.
        self._fu_overflow: Dict[Tuple[int, int], int] = {}
        #: cycle at which the unit becomes free for a new thread.
        self.free_at = 0
        #: sorted (start, end) cycle windows during which the unit is dark
        #: (fault injection); empty in a healthy simulation.
        self.fault_windows: List[Tuple[int, int]] = []
        #: Structured-event sink (the processor installs its tracer; the
        #: null tracer makes :meth:`note_install` a no-op).
        self.tracer = NULL_TRACER

    def note_install(
        self, cycle: int, thread: int, addr: int, is_store: bool
    ) -> None:
        """Record an L1 miss installing a line as a ``cache.install`` event.

        Called by the timing cores only when tracing is enabled (the
        event core from its inlined miss branch, the legacy core when the
        cache's miss counter moves), so the disabled path never reaches
        here.
        """
        self.tracer.emit(
            EV_CACHE_INSTALL,
            cycle,
            tu=self.tu_id,
            thread=thread,
            addr=addr,
            store=is_store,
        )

    def set_fault_windows(self, windows: List[Tuple[int, int]]) -> None:
        """Install the unit's blackout schedule (sorted, non-overlapping)."""
        self.fault_windows = sorted(windows)

    def dark_until(self, cycle: int) -> Optional[int]:
        """End of the blackout window covering ``cycle``, if the unit is
        dark at that cycle; None otherwise."""
        windows = self.fault_windows
        if not windows:
            return None
        index = bisect_right(windows, (cycle, float("inf"))) - 1
        if index >= 0 and windows[index][0] <= cycle < windows[index][1]:
            return windows[index][1]
        return None

    # ------------------------------------------------------------------
    # Issue booking — ring-buffer tracker.
    # ------------------------------------------------------------------

    def begin_group(self, floor: int) -> None:
        """Advance the ring window: no future probe will be below ``floor``.

        The timing model calls this once per fetch group with the group's
        readiness floor; bases are monotonically non-decreasing by
        construction of the event loop, which is what makes the stamped
        ring slots unambiguous.
        """
        if floor > self._ring_base:
            self._ring_base = floor

    def book_issue(self, earliest: int, fu: FuClass) -> int:
        """Reserve an issue slot and a functional unit.

        Returns the first cycle >= ``earliest`` with both an issue-width
        slot and a free unit of class ``fu`` (units are fully pipelined:
        the reservation covers the issue cycle only).  Probes must not go
        below the last ``begin_group`` floor.
        """
        return self.book_issue_idx(earliest, FU_INDEX[fu])

    def book_issue_idx(self, earliest: int, fu_idx: int) -> int:
        """:meth:`book_issue` over the FU *ordinal* (hot-path variant)."""
        width = self.issue_width
        limit = FU_LIMITS[fu_idx]
        base = self._ring_base
        issue_stamp = self._issue_stamp
        issue_count = self._issue_count
        fu_stamp = self._fu_stamp[fu_idx]
        fu_count = self._fu_count[fu_idx]
        issue_overflow = self._issue_overflow
        fu_overflow = self._fu_overflow
        spilled = bool(issue_overflow or fu_overflow)
        cycle = earliest
        while True:
            if cycle - base < RING_WINDOW:
                slot = cycle & _RING_MASK
                used = issue_count[slot] if issue_stamp[slot] == cycle else 0
                busy = fu_count[slot] if fu_stamp[slot] == cycle else 0
                if spilled:
                    used += issue_overflow.get(cycle, 0)
                    busy += fu_overflow.get((fu_idx, cycle), 0)
                if used < width and busy < limit:
                    if issue_stamp[slot] == cycle:
                        issue_count[slot] += 1
                    else:
                        issue_stamp[slot] = cycle
                        issue_count[slot] = 1
                    if fu_stamp[slot] == cycle:
                        fu_count[slot] += 1
                    else:
                        fu_stamp[slot] = cycle
                        fu_count[slot] = 1
                    return cycle
            else:
                used = issue_overflow.get(cycle, 0)
                busy = fu_overflow.get((fu_idx, cycle), 0)
                if used < width and busy < limit:
                    issue_overflow[cycle] = used + 1
                    fu_overflow[(fu_idx, cycle)] = busy + 1
                    return cycle
            cycle += 1

    # ------------------------------------------------------------------
    # Issue booking — legacy dict tracker (reference core).
    # ------------------------------------------------------------------

    def book_issue_legacy(self, earliest: int, fu: FuClass) -> int:
        """The original dict-backed :meth:`book_issue` (reference core)."""
        issue_width = self.config.issue_width
        fu_limit = FU_COUNT[fu]
        cycle = earliest
        issue_used = self._issue_used
        fu_used = self._fu_used
        while True:
            if issue_used.get(cycle, 0) < issue_width and (
                fu_used.get((fu, cycle), 0) < fu_limit
            ):
                issue_used[cycle] = issue_used.get(cycle, 0) + 1
                fu_used[(fu, cycle)] = fu_used.get((fu, cycle), 0) + 1
                return cycle
            cycle += 1

    # ------------------------------------------------------------------
    # Bookkeeping hygiene.
    # ------------------------------------------------------------------

    def reset_bandwidth_tracking(self) -> None:
        """Drop per-cycle bookkeeping (between independent simulations)."""
        self._issue_used.clear()
        self._fu_used.clear()
        self._issue_overflow.clear()
        self._fu_overflow.clear()
        self._ring_base = 0
        self._issue_stamp = [-1] * RING_WINDOW
        self._issue_count = [0] * RING_WINDOW
        self._fu_stamp = [[-1] * RING_WINDOW for _ in FU_CLASSES]
        self._fu_count = [[0] * RING_WINDOW for _ in FU_CLASSES]

    def trim_bandwidth(self, before_cycle: int) -> int:
        """Drop booking entries strictly below ``before_cycle``.

        Called when a thread retires from this unit: every future probe on
        the unit happens after the retiring thread's commit cycle, so
        entries below it can never be read again.  The ring slots reclaim
        themselves via their stamps; this trims the unbounded structures
        (the legacy dicts and the ring's overflow spill) so weeks-long
        simulations do not grow issue-tracking state without bound.
        Returns the number of entries dropped.
        """
        removed = 0
        for cycle in [c for c in self._issue_used if c < before_cycle]:
            del self._issue_used[cycle]
            removed += 1
        for key in [k for k in self._fu_used if k[1] < before_cycle]:
            del self._fu_used[key]
            removed += 1
        for cycle in [c for c in self._issue_overflow if c < before_cycle]:
            del self._issue_overflow[cycle]
            removed += 1
        for key in [k for k in self._fu_overflow if k[1] < before_cycle]:
            del self._fu_overflow[key]
            removed += 1
        return removed
