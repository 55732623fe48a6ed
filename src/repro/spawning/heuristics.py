"""Traditional thread-spawning heuristics (the paper's Section 3 baseline).

All three schemes key on easily-detectable program constructs:

- *loop iteration*: SP = CQIP = loop head (target of a backward branch);
- *loop continuation*: SP = loop head, CQIP = instruction following the
  backward branch that closes the loop;
- *subroutine continuation*: SP = call site, CQIP = its return point.

The combined scheme (union of the three) is the comparison baseline used in
Figure 8, following the earlier study the paper cites ([15]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.exec.trace import Trace
from repro.spawning.pairs import PairKind, SpawnPair, SpawnPairSet


@dataclass
class HeuristicConfig:
    """Knobs for the heuristic policies.

    ``min_distance`` optionally filters out constructs whose observed
    dynamic SP->CQIP distance is tiny (the traditional schemes in the paper
    do not enforce the profile policy's size threshold; 1 keeps them all).
    ``max_lookahead`` bounds the trace scan when measuring the observed
    distance/probability of each construct.
    """

    min_distance: float = 1.0
    max_lookahead: int = 4096
    include_loop_iterations: bool = True
    include_loop_continuations: bool = True
    include_subroutine_continuations: bool = True


#: Preference among schemes when one spawning point matches several
#: constructs.  The paper's earlier study [15] found loop iterations the
#: most effective individual scheme on this architecture, so the combined
#: baseline prioritises iteration > subroutine continuation > loop
#: continuation; distance breaks ties within a kind.
_KIND_PRIORITY = {
    PairKind.LOOP_ITERATION: 2,
    PairKind.SUBROUTINE_CONTINUATION: 1,
    PairKind.LOOP_CONTINUATION: 0,
}

_PRIORITY_STEP = 1 << 20  # larger than any realistic distance


def _kind_score(kind: PairKind, distance: float) -> float:
    return _KIND_PRIORITY[kind] * _PRIORITY_STEP + min(
        distance, _PRIORITY_STEP - 1
    )


def _measure_pair(
    trace: Trace, sp_pc: int, cqip_pc: int, max_lookahead: int
) -> Optional[tuple]:
    """Observed (reach probability, mean distance) of an (SP, CQIP) pair.

    A CQIP "reached" means it occurs after the SP occurrence, before the SP
    recurs and within the lookahead window — the same event the profile
    policy scores, so heuristic and profile pairs are comparable.
    """
    sp_positions = trace.positions_of(sp_pc)
    if not sp_positions:
        return None
    n = len(trace)
    reached = 0
    dist_sum = 0.0
    for sp_pos in sp_positions:
        limit = min(n, sp_pos + max_lookahead)
        cqip_pos = trace.next_occurrence(cqip_pc, sp_pos, limit)
        if sp_pc != cqip_pc:
            sp_again = trace.next_occurrence(sp_pc, sp_pos, limit)
            if cqip_pos is not None and sp_again is not None and sp_again < cqip_pos:
                cqip_pos = None
        if cqip_pos is not None:
            reached += 1
            dist_sum += cqip_pos - sp_pos
    if reached == 0:
        return 0.0, float("nan")
    return reached / len(sp_positions), dist_sum / reached


def loop_iteration_pairs(trace: Trace, config: HeuristicConfig) -> List[SpawnPair]:
    """Loop-iteration scheme: SP = CQIP = loop head, for every loop.

    Args:
        trace: Profile trace to measure candidate pairs on.
        config: Distance/lookahead thresholds.

    Returns:
        The scheme's measured :class:`SpawnPair` list.
    """
    pairs = []
    for head in sorted(trace.program.loop_heads()):
        measured = _measure_pair(trace, head, head, config.max_lookahead)
        if measured is None:
            continue
        prob, dist = measured
        if prob > 0 and dist >= config.min_distance:
            pairs.append(
                SpawnPair(
                    sp_pc=head,
                    cqip_pc=head,
                    kind=PairKind.LOOP_ITERATION,
                    reach_probability=prob,
                    expected_distance=dist,
                    score=_kind_score(PairKind.LOOP_ITERATION, dist),
                )
            )
    return pairs


def loop_continuation_pairs(trace: Trace, config: HeuristicConfig) -> List[SpawnPair]:
    """Loop-continuation scheme: spawn the code after the loop exit.

    Args:
        trace: Profile trace to measure candidate pairs on.
        config: Distance/lookahead thresholds.

    Returns:
        The scheme's measured :class:`SpawnPair` list.
    """
    program = trace.program
    pairs = []
    for branch_pc in program.backward_branch_pcs():
        head = program[branch_pc].target
        cqip = branch_pc + 1
        if cqip >= len(program):
            continue
        measured = _measure_pair(trace, head, cqip, config.max_lookahead)
        if measured is None:
            continue
        prob, dist = measured
        if prob > 0 and dist >= config.min_distance:
            pairs.append(
                SpawnPair(
                    sp_pc=head,
                    cqip_pc=cqip,
                    kind=PairKind.LOOP_CONTINUATION,
                    reach_probability=prob,
                    expected_distance=dist,
                    score=_kind_score(PairKind.LOOP_CONTINUATION, dist),
                )
            )
    return pairs


def subroutine_continuation_pairs(
    trace: Trace, config: HeuristicConfig
) -> List[SpawnPair]:
    """Subroutine-continuation scheme: spawn a call's return point.

    Args:
        trace: Profile trace to measure candidate pairs on.
        config: Distance/lookahead thresholds.

    Returns:
        The scheme's measured :class:`SpawnPair` list.
    """
    pairs = []
    for call_pc in trace.program.call_sites():
        cqip = call_pc + 1
        measured = _measure_pair(trace, call_pc, cqip, config.max_lookahead)
        if measured is None:
            continue
        prob, dist = measured
        if prob > 0 and dist >= config.min_distance:
            pairs.append(
                SpawnPair(
                    sp_pc=call_pc,
                    cqip_pc=cqip,
                    kind=PairKind.SUBROUTINE_CONTINUATION,
                    reach_probability=prob,
                    expected_distance=dist,
                    score=_kind_score(PairKind.SUBROUTINE_CONTINUATION, dist),
                )
            )
    return pairs


def heuristic_pairs(
    trace: Trace, config: Optional[HeuristicConfig] = None
) -> SpawnPairSet:
    """The combined traditional baseline (union of the three schemes).

    When one spawning point matches several constructs, kind priority
    decides which fires (see ``_KIND_PRIORITY``); distance breaks ties.

    Args:
        trace: Profile trace to measure candidate pairs on.
        config: Which schemes to include plus their thresholds
            (None = all three with defaults).

    Returns:
        The combined :class:`SpawnPairSet` (the Figure 8 baseline).
    """
    config = config or HeuristicConfig()
    pairs: List[SpawnPair] = []
    if config.include_loop_iterations:
        pairs.extend(loop_iteration_pairs(trace, config))
    if config.include_loop_continuations:
        pairs.extend(loop_continuation_pairs(trace, config))
    if config.include_subroutine_continuations:
        pairs.extend(subroutine_continuation_pairs(trace, config))
    # Deduplicate identical (SP, CQIP) pairs across schemes.
    unique = {}
    for pair in pairs:
        unique.setdefault(pair.key(), pair)
    return SpawnPairSet(list(unique.values()), candidates_evaluated=len(pairs))
