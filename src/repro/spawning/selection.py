"""The paper's profile-based spawning-pair selection (Section 3.1).

Pipeline: trace -> dynamic CFG -> coverage pruning -> reaching probability
and expected distance for every ordered block pair -> threshold filter
(probability >= 0.95, distance >= 32 by default) -> per-SP ordering of the
surviving CQIPs by the chosen criterion -> union with subroutine
return-point pairs that satisfy the size constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.exec.trace import Trace
from repro.profiling.cfg import ControlFlowGraph
from repro.profiling.dependence import profile_pair_dependences
from repro.profiling.pruning import prune_cfg
from repro.profiling.reaching import build_reaching_profile
from repro.spawning.pairs import PairKind, SpawnPair, SpawnPairSet


@dataclass
class ProfilePolicyConfig:
    """Selection thresholds and ordering criterion.

    The probability and distance minimums follow the paper: reaching
    probability 0.95, average distance 32 instructions.  Coverage and the
    distance cap deviate from the paper's 90%/unbounded: 99% CFG coverage
    and a 4096-instruction cap, because the synthetic traces lack
    SpecInt's cold-code tail, so a 90% cut discards structurally
    important outer loops (DESIGN.md §6).  ``ordering`` is one of
    ``"distance"`` (the paper's default criterion (a)),
    ``"independent"`` (criterion (b)) or ``"predictable"`` (criterion (c)).
    ``method`` picks the reaching estimator (``"empirical"``/``"markov"``;
    the Markov ablation needs numpy).
    """

    min_probability: float = 0.95
    min_distance: float = 32.0
    max_distance: float = 4096.0
    coverage: float = 0.99
    ordering: str = "distance"
    method: str = "empirical"
    include_return_points: bool = True
    max_alternatives: int = 4
    max_lookahead: int = 4096
    dependence_samples: int = 6
    #: Collapse spawning points that mutually reach each other with high
    #: probability (blocks of one recurrent loop region): each would spawn
    #: essentially the same future thread, so only the best-scored SP of a
    #: cluster is kept.  Redundant SPs burn thread units on misordered
    #: spawn attempts at runtime.
    dedupe_mutual_sps: bool = True
    #: Protect observed loop-head blocks from the coverage cut.  The
    #: overhead block of a hot outer loop can rank below 90/99% coverage
    #: even though the whole region's best spawning pair hangs off it.
    #: Off by default: on this suite it trades go/stride gains for li
    #: losses (see benchmarks/test_ablations.py).
    keep_loop_heads: bool = False


def select_profile_pairs(
    trace: Trace, config: Optional[ProfilePolicyConfig] = None
) -> SpawnPairSet:
    """Run the full profile-based selection on ``trace``.

    Returns:
        The selected :class:`SpawnPairSet` (one primary pair per SP,
        with lower-scored alternatives kept for the reassign policy).
    """
    config = config or ProfilePolicyConfig()
    if config.ordering not in ("distance", "independent", "predictable"):
        raise ValueError(f"unknown ordering criterion {config.ordering!r}")

    cfg = ControlFlowGraph.from_trace(trace)
    always_keep = None
    if config.keep_loop_heads:
        always_keep = {
            cfg.by_pc[pc]
            for pc in trace.program.loop_heads()
            if pc in cfg.by_pc
        }
    pruned = prune_cfg(cfg, coverage=config.coverage, always_keep=always_keep)
    profile = build_reaching_profile(
        cfg,
        method=config.method,
        pruned=pruned,
        max_lookahead=config.max_lookahead,
    )

    kept = sorted(pruned.kept)
    candidates: List[SpawnPair] = []
    for s in kept:
        sp_pc = cfg.blocks[s].start_pc
        prob_row = profile.prob[s]
        dist_row = profile.dist[s]
        for d in kept:
            prob = prob_row[d]
            dist = dist_row[d]
            if prob < config.min_probability:
                continue
            if not (config.min_distance <= dist <= config.max_distance):
                continue
            candidates.append(
                SpawnPair(
                    sp_pc=sp_pc,
                    cqip_pc=cfg.blocks[d].start_pc,
                    kind=PairKind.PROFILE,
                    reach_probability=prob,
                    expected_distance=dist,
                    score=dist,
                )
            )

    if config.ordering != "distance":
        candidates = [_rescore(trace, pair, config) for pair in candidates]

    # Keep the best ``max_alternatives`` CQIPs per spawning point.
    by_sp = {}
    for pair in candidates:
        by_sp.setdefault(pair.sp_pc, []).append(pair)
    pruned_pairs: List[SpawnPair] = []
    for sp_pc, alts in by_sp.items():
        alts.sort(key=lambda p: p.score, reverse=True)
        pruned_pairs.extend(alts[: config.max_alternatives])

    if config.dedupe_mutual_sps:
        pruned_pairs = _dedupe_mutual_sps(cfg, profile, pruned_pairs, config)

    if config.include_return_points:
        pruned_pairs = _add_return_points(trace, pruned_pairs, config)

    return SpawnPairSet(pruned_pairs, candidates_evaluated=len(candidates))


def _dedupe_mutual_sps(cfg, profile, pairs, config):
    """Keep one spawning point per mutually-reaching cluster.

    Two SPs whose blocks reach each other with probability above the
    selection threshold belong to the same recurrent region (typically the
    same loop); their primary pairs would spawn the same future over and
    over, so only the best-scored one survives.
    """
    sp_pcs = sorted({p.sp_pc for p in pairs})
    index = {pc: i for i, pc in enumerate(sp_pcs)}
    parent = list(range(len(sp_pcs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    threshold = config.min_probability
    blocks = [cfg.by_pc.get(pc) for pc in sp_pcs]
    for i, bi in enumerate(blocks):
        if bi is None:
            continue
        for j in range(i + 1, len(sp_pcs)):
            bj = blocks[j]
            if bj is None:
                continue
            if (
                profile.prob[bi][bj] >= threshold
                and profile.prob[bj][bi] >= threshold
            ):
                parent[find(i)] = find(j)

    best_of_cluster = {}
    best_score = {}
    for pair in pairs:
        root = find(index[pair.sp_pc])
        if root not in best_score or pair.score > best_score[root]:
            best_score[root] = pair.score
            best_of_cluster[root] = pair.sp_pc
    keep = set(best_of_cluster.values())
    return [p for p in pairs if p.sp_pc in keep]


def _rescore(
    trace: Trace, pair: SpawnPair, config: ProfilePolicyConfig
) -> SpawnPair:
    """Re-score a candidate under the independence/predictability criteria."""
    dep = profile_pair_dependences(
        trace,
        pair.sp_pc,
        pair.cqip_pc,
        thread_length=max(1, int(pair.expected_distance)),
        max_samples=config.dependence_samples,
    )
    if config.ordering == "independent":
        score = dep.avg_independent
    else:
        score = dep.avg_predictable_or_independent
    return SpawnPair(
        sp_pc=pair.sp_pc,
        cqip_pc=pair.cqip_pc,
        kind=pair.kind,
        reach_probability=pair.reach_probability,
        expected_distance=pair.expected_distance,
        score=score,
    )


def _add_return_points(
    trace: Trace, pairs: List[SpawnPair], config: ProfilePolicyConfig
) -> List[SpawnPair]:
    """Append subroutine return-point pairs meeting the size constraint.

    The paper adds every (call site, return point) pair satisfying the
    minimum size even when its reaching probability is low (a subroutine
    called from many places dilutes each call's reaching probability, yet
    the return is certain once the call executes).
    """
    existing = {(p.sp_pc, p.cqip_pc) for p in pairs}
    n = len(trace)
    result = list(pairs)
    for call_pc in trace.program.call_sites():
        cqip_pc = call_pc + 1
        if (call_pc, cqip_pc) in existing:
            continue
        positions = trace.positions_of(call_pc)
        if not positions:
            continue
        reached = 0
        dist_sum = 0.0
        for pos in positions:
            ret_pos = trace.next_occurrence(
                cqip_pc, pos, min(n, pos + config.max_lookahead)
            )
            if ret_pos is not None:
                reached += 1
                dist_sum += ret_pos - pos
        if not reached:
            continue
        distance = dist_sum / reached
        if not (config.min_distance <= distance <= config.max_distance):
            continue
        result.append(
            SpawnPair(
                sp_pc=call_pc,
                cqip_pc=cqip_pc,
                kind=PairKind.RETURN_POINT,
                reach_probability=reached / len(positions),
                expected_distance=distance,
                score=distance,
            )
        )
    return result
