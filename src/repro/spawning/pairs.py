"""Spawning-pair data model shared by all policies."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


class PairKind(enum.Enum):
    """Provenance of a spawning pair."""

    PROFILE = "profile"
    RETURN_POINT = "return_point"
    LOOP_ITERATION = "loop_iteration"
    LOOP_CONTINUATION = "loop_continuation"
    SUBROUTINE_CONTINUATION = "subroutine_continuation"


@dataclass(frozen=True)
class SpawnPair:
    """One (spawning point, control quasi-independent point) pair.

    ``expected_distance`` is the profile's average instruction count between
    SP and CQIP (the expected speculative-thread size); ``score`` is the
    value of the active CQIP-ordering criterion (higher is better).
    """

    sp_pc: int
    cqip_pc: int
    kind: PairKind
    reach_probability: float
    expected_distance: float
    score: float = 0.0

    def key(self) -> tuple:
        """Return the pair's identity: the ``(sp_pc, cqip_pc)`` tuple."""
        return (self.sp_pc, self.cqip_pc)


class SpawnPairSet:
    """All pairs a policy produced, grouped and ordered per spawning point.

    ``alternatives(sp_pc)`` returns the CQIP candidates for an SP in
    decreasing preference order; the processor normally uses only the first
    (the paper's default), while the *reassign* policy walks down the list.
    """

    def __init__(self, pairs: List[SpawnPair], candidates_evaluated: int = 0):
        self._by_sp: Dict[int, List[SpawnPair]] = {}
        for pair in pairs:
            self._by_sp.setdefault(pair.sp_pc, []).append(pair)
        for sp_pc in self._by_sp:
            self._by_sp[sp_pc].sort(key=lambda p: p.score, reverse=True)
        #: Number of (SP, CQIP) combinations that passed the thresholds
        #: before the one-per-SP selection (the "Total Pairs" of Figure 2).
        self.candidates_evaluated = candidates_evaluated

    def __len__(self) -> int:
        return len(self._by_sp)

    def __iter__(self) -> Iterator[SpawnPair]:
        return iter(self.primary_pairs())

    def spawning_points(self) -> List[int]:
        """Return every distinct spawning-point pc in the set."""
        return list(self._by_sp.keys())

    def alternatives(self, sp_pc: int) -> List[SpawnPair]:
        """Return the SP's CQIP candidates in decreasing preference."""
        return self._by_sp.get(sp_pc, [])

    def primary(self, sp_pc: int) -> Optional[SpawnPair]:
        """Return the SP's best pair (None when the SP is unknown)."""
        alts = self._by_sp.get(sp_pc)
        return alts[0] if alts else None

    def primary_pairs(self) -> List[SpawnPair]:
        """Return the best pair of every spawning point."""
        return [alts[0] for alts in self._by_sp.values() if alts]

    def all_pairs(self) -> List[SpawnPair]:
        """Return every pair, including non-primary alternatives."""
        return [p for alts in self._by_sp.values() for p in alts]
