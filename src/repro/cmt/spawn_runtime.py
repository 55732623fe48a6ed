"""Runtime spawning-pair management.

Implements the dynamic mechanisms of Section 4.2: removal of pairs whose
threads execute alone beyond a cycle threshold (Figure 5a), delayed removal
after a number of occurrences (Figure 5b), re-assignment of a spawning
point to its next-best CQIP (Figure 6), and minimum dynamic thread size
enforcement (Figure 7b).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cmt.config import ProcessorConfig
from repro.obs.events import EV_PAIR_REMOVE, EV_PAIR_REVIVE, NULL_TRACER
from repro.spawning.pairs import SpawnPair, SpawnPairSet

PairKey = Tuple[int, int]


class SpawnRuntime:
    """Tracks which pairs are live and applies the removal policies."""

    def __init__(
        self, pair_set: SpawnPairSet, config: ProcessorConfig, tracer=None
    ):
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._alternatives: Dict[int, List[SpawnPair]] = {
            sp_pc: list(pair_set.alternatives(sp_pc))
            for sp_pc in pair_set.spawning_points()
        }
        #: pair key -> cycle at which it was removed.
        self._removed: Dict[PairKey, int] = {}
        self._alone_occurrences: Dict[PairKey, int] = {}
        self.removed_alone = 0
        self.removed_min_size = 0
        self.revived = 0
        # --- faulty-spawn-interconnect accounting (fault injection) ---
        #: Retry attempts spent on requests that eventually went through.
        self.spawn_retries = 0
        #: Requests abandoned after exhausting the retry budget.
        self.spawns_dropped = 0
        #: Individual dropped attempts (every drop is one fault event).
        self.drop_events = 0

    # ------------------------------------------------------------------
    # Spawn-time queries.
    # ------------------------------------------------------------------

    def is_spawning_point(self, pc: int) -> bool:
        return pc in self._alternatives

    def spawn_pcs(self) -> frozenset:
        """The static set of spawning-point PCs.

        Pair removal/revival only changes :meth:`candidates`, never this
        set, so callers may hoist it (the event core keeps it as a
        frozenset for its fetch loop's membership test).
        """
        return frozenset(self._alternatives)

    def _is_removed(self, key: PairKey, cycle: int) -> bool:
        removed_at = self._removed.get(key)
        if removed_at is None:
            return False
        revival = self.config.removal_revival_cycles
        if revival is not None and cycle - removed_at >= revival:
            # the paper's footnote policy: give the pair another chance
            del self._removed[key]
            self._alone_occurrences.pop(key, None)
            self.revived += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EV_PAIR_REVIVE, cycle, sp_pc=key[0], cqip_pc=key[1]
                )
            return False
        return True

    def candidates(self, sp_pc: int, cycle: int = 0) -> List[SpawnPair]:
        """Live pairs for an SP: the best one, or all of them in preference
        order under the reassign policy."""
        if not self._removed:
            # No pair is removed (the common case when the removal
            # policies are off): the stored preference order is the
            # answer, no per-pair liveness filtering needed.
            alive = self._alternatives.get(sp_pc, [])
        else:
            alive = [
                pair
                for pair in self._alternatives.get(sp_pc, [])
                if not self._is_removed(pair.key(), cycle)
            ]
        if not alive:
            return []
        if self.config.reassign:
            return alive
        return alive[:1]

    def request_spawn(
        self, injector, sp_pc: int, parent_seq: int, pos: int
    ) -> Tuple[bool, int, int]:
        """Present a spawn request to the (possibly faulty) interconnect.

        Under fault injection a request may be dropped; the spawn logic
        retries with bounded exponential backoff.  Returns
        ``(granted, retries, delay_cycles)`` — ``delay_cycles`` is the
        total backoff the request spent waiting, whether or not it was
        eventually granted.
        """
        model = injector.plan.spawn_drop
        delay = 0
        for attempt in range(model.max_retries + 1):
            if not injector.spawn_dropped(sp_pc, parent_seq, pos, attempt):
                self.spawn_retries += attempt
                return True, attempt, delay
            self.drop_events += 1
            delay += model.backoff << attempt
        self.spawns_dropped += 1
        return False, model.max_retries, delay

    # ------------------------------------------------------------------
    # Removal policies.
    # ------------------------------------------------------------------

    def note_alone_threshold(
        self, pair: Optional[SpawnPair], cycle: int = 0
    ) -> bool:
        """A thread spawned by ``pair`` exceeded the alone-cycles threshold.

        Returns True when the pair was removed (after the configured number
        of occurrences).
        """
        if pair is None or self.config.removal_cycles is None:
            return False
        key = pair.key()
        if key in self._removed:
            return False
        count = self._alone_occurrences.get(key, 0) + 1
        self._alone_occurrences[key] = count
        if count >= self.config.removal_occurrences:
            self._removed[key] = cycle
            self.removed_alone += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EV_PAIR_REMOVE,
                    cycle,
                    sp_pc=key[0],
                    cqip_pc=key[1],
                    reason="alone",
                )
            return True
        return False

    def note_thread_size(
        self, pair: Optional[SpawnPair], executed: int, cycle: int = 0
    ) -> bool:
        """Enforce the minimum dynamic thread size (Figure 7b)."""
        if pair is None or self.config.min_thread_size is None:
            return False
        key = pair.key()
        if key in self._removed or executed >= self.config.min_thread_size:
            return False
        self._removed[key] = cycle
        self.removed_min_size += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EV_PAIR_REMOVE,
                cycle,
                sp_pc=key[0],
                cqip_pc=key[1],
                reason="min_size",
            )
        return True
