"""CFG pruning to an instruction-coverage target.

The paper reduces the graph by keeping the hottest basic blocks until 90%
of executed instructions are covered.  Pruned nodes are *eliminated*, not
dropped: each predecessor edge is re-routed to the node's successors with
its weight split proportionally, so control-flow information (and total
edge flow) is conserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.profiling.cfg import ControlFlowGraph


@dataclass
class PrunedCFG:
    """Result of pruning: the kept block ids and the rewired edge weights."""

    cfg: ControlFlowGraph
    kept: FrozenSet[int]
    edges: Dict[Tuple[int, int], float]
    coverage: float

    def out_weight(self, bid: int) -> float:
        return sum(w for (u, _v), w in self.edges.items() if u == bid)


def prune_cfg(
    cfg: ControlFlowGraph,
    coverage: float = 0.9,
    always_keep: Optional[Iterable[int]] = None,
) -> PrunedCFG:
    """Prune ``cfg`` to blocks covering ``coverage`` of executed instructions.

    Blocks are ranked by execution count (the paper's ordering) and kept
    from hottest to coldest until the cumulative instruction coverage
    reaches the target.  Every pruned node is eliminated by connecting its
    predecessors to its successors; an edge split across multiple
    successors divides its weight proportionally to the successor edge
    weights, with self-loop flow folded into the exit distribution.

    ``always_keep`` protects structurally-critical block ids (e.g. loop
    heads) from the coverage cut — small loop-overhead blocks of hot
    outer loops can rank below the cut even though every spawning pair of
    the region hangs off them.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")

    ranked = sorted(cfg.blocks, key=lambda blk: blk.count, reverse=True)
    total = cfg.total_instructions
    kept = set(always_keep or ())
    covered = sum(
        cfg.blocks[bid].count * cfg.blocks[bid].size for bid in kept
    )
    for blk in ranked:
        if covered >= coverage * total:
            break
        if blk.bid in kept:
            continue
        kept.add(blk.bid)
        covered += blk.count * blk.size

    # Eliminate pruned nodes one at a time on a mutable weighted graph.
    edges: Dict[Tuple[int, int], float] = {
        key: float(weight) for key, weight in cfg.edges.items()
    }
    for blk in cfg.blocks:
        victim = blk.bid
        if victim in kept:
            continue
        in_edges = [
            (u, w) for (u, v), w in edges.items() if v == victim and u != victim
        ]
        out_edges = [
            (v, w) for (u, v), w in edges.items() if u == victim and v != victim
        ]
        exit_total = sum(w for _v, w in out_edges)
        for u, w_in in in_edges:
            if exit_total > 0:
                # Probability of leaving the victim towards v, accounting
                # for any number of self-loop traversals first.
                for v, w_out in out_edges:
                    key = (u, v)
                    edges[key] = edges.get(key, 0.0) + w_in * w_out / exit_total
            # else: the victim is a sink (flow dies there), drop the edge.
        for u, _w in in_edges:
            del edges[(u, victim)]
        for v, _w in out_edges:
            del edges[(victim, v)]
        if (victim, victim) in edges:
            # Self-loop flow is folded into the exit split (a walk may loop
            # any number of times before leaving, which does not change the
            # exit distribution); the edge itself disappears with the node.
            del edges[(victim, victim)]

    return PrunedCFG(
        cfg=cfg,
        kept=frozenset(kept),
        edges=edges,
        coverage=covered / total if total else 0.0,
    )
