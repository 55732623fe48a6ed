"""Reaching probabilities and expected SP->CQIP distances.

For every ordered pair of basic blocks (s, d) the paper needs:

- ``prob[s][d]``: the probability that, having just entered ``s``, control
  reaches ``d`` before re-entering ``s`` (the source may appear in the
  sequence only as its first element, the destination only as its last;
  other blocks may repeat freely — Section 3.1).
- ``dist[s][d]``: the average number of instructions executed from the
  start of ``s`` to the start of ``d`` over the sequences that do reach.

Both are lists with one ``array('d')`` row per source block.

:class:`MarkovReachingProfile` computes both in closed form on the pruned
CFG using absorbing-chain fundamental matrices.  For each source ``s`` the
chain is modified so that ``s`` absorbs (a revisit kills the walk); with
``N = (I - Q_s)^-1`` and ``H[x, d] = N[x, d] / N[d, d]`` (first-passage
probability), taboo Green's functions give the expected number of visits
to each block before first reaching ``d`` restricted to walks that do
reach it: ``G_d(x, z) = (N[x, z] - H[x, d] * N[d, z]) * H[z, d]``.

:class:`EmpiricalReachingProfile` measures the same quantities directly on
the profile trace with a bounded lookahead; it is the default estimator
because it makes no Markov assumption (and the paper's selection criteria
only need pairs within a bounded distance anyway).  It walks the block
sequence once, backwards, keeping the blocks ordered by their next entry
so each walk visits only the blocks it reaches; counts and distance sums
accumulate in Python ints per block pair and are divided into the rows
once (distances are integers, so the sums are exact).  It needs no numpy;
only the Markov ablation (``method="markov"``) imports it, for the
matrix inverse.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from typing import List, Optional

from repro.profiling.cfg import ControlFlowGraph
from repro.profiling.pruning import PrunedCFG


class ReachingProfile:
    """Common interface: dense ``prob`` and ``dist`` tables over blocks.

    One ``array('d')`` row per source block: ``prob[s][d]`` in [0, 1];
    ``dist[s][d]`` in instructions (NaN where the pair was never observed
    / has zero probability).
    """

    def __init__(self, cfg: ControlFlowGraph, prob: List[array], dist: List[array]):
        self.cfg = cfg
        self.prob = prob
        self.dist = dist


class EmpiricalReachingProfile(ReachingProfile):
    """Reaching statistics measured directly on the profile trace."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        max_lookahead: int = 4096,
    ):
        n = len(cfg)
        blocks = [bid for bid, _ in cfg.sequence]
        starts = [pos for _, pos in cfg.sequence]
        seq_len = len(blocks)
        occurrences = Counter(blocks)

        # count_rows[s][d]: walks from s that reached d; dist_rows[s][d]:
        # the sum of their distances.  Python ints, divided into the
        # rows once at the end.
        count_rows = [[0] * n for _ in range(n)]
        dist_rows = [[0] * n for _ in range(n)]
        # Walking the sequence backwards, ``following[b]`` is the index of
        # the next entry of block b after the current one (seq_len if
        # none), and ``order`` lists the blocks by that index, so the
        # blocks a walk reaches first are a prefix of it.
        following = [seq_len] * n
        order = list(range(n))
        for k in range(seq_len - 1, -1, -1):
            s = blocks[k]
            pos_s = starts[k]
            count_row = count_rows[s]
            dist_row = dist_rows[s]
            # The walk from entry k sees the entries before the lookahead
            # horizon and stops at the source's next entry (a loop
            # iteration: the self pair, recorded at that distance).
            stop = bisect_left(starts, pos_s + max_lookahead, k + 1)
            again = following[s]
            if again < stop:
                stop = again
                count_row[s] += 1
                dist_row[s] += starts[again] - pos_s
            for blk in order:
                m = following[blk]
                if m >= stop:
                    break
                count_row[blk] += 1
                dist_row[blk] += starts[m] - pos_s
            order.remove(s)
            order.insert(0, s)
            following[s] = k
        # Int/int true division rounds the exact quotient once, as a
        # float64 divide of the (exactly converted) operands does.  A
        # block that never occurs has only zero counts: a zero row.
        nan = float("nan")
        prob: List[array] = []
        dist: List[array] = []
        for s, count_row in enumerate(count_rows):
            occ = occurrences[s] or 1
            prob.append(array("d", [c / occ for c in count_row]))
            dist.append(
                array(
                    "d",
                    [t / c if c else nan for c, t in zip(count_row, dist_rows[s])],
                )
            )
        super().__init__(cfg, prob, dist)
        self.max_lookahead = max_lookahead


class MarkovReachingProfile(ReachingProfile):
    """The paper's closed-form computation on the pruned CFG.

    Blocks outside the pruned cover get zero probability (they cannot be
    selected as spawning points anyway).  Unlike the default estimator it
    needs numpy, for the matrix inverse, and raises ``ImportError``
    without it.
    """

    def __init__(self, pruned: PrunedCFG):
        try:
            import numpy as np
        except ImportError as exc:
            raise ImportError(
                'the reaching estimator method="markov" needs numpy '
                "(pip install numpy, or the dev extra)"
            ) from exc

        cfg = pruned.cfg
        n_all = len(cfg)
        kept = sorted(pruned.kept)
        index = {bid: i for i, bid in enumerate(kept)}
        n = len(kept)

        # Row-stochastic transition matrix over kept blocks (rows of sinks
        # stay zero: the walk dies there).
        P = np.zeros((n, n), dtype=np.float64)
        out = np.zeros(n, dtype=np.float64)
        for (u, v), w in pruned.edges.items():
            if u in index and v in index:
                out[index[u]] += w
        for (u, v), w in pruned.edges.items():
            if u in index and v in index and out[index[u]] > 0:
                P[index[u], index[v]] += w / out[index[u]]

        sizes = np.array(
            [cfg.blocks[bid].size for bid in kept], dtype=np.float64
        )

        prob = np.zeros((n_all, n_all), dtype=np.float64)
        dist = np.full((n_all, n_all), np.nan, dtype=np.float64)
        eye = np.eye(n)

        for si, s_bid in enumerate(kept):
            q = P.copy()
            q[si, :] = 0.0  # revisiting the source kills the walk
            try:
                fundamental = np.linalg.inv(eye - q)
            except np.linalg.LinAlgError:
                fundamental = np.linalg.pinv(eye - q)
            diag = np.diag(fundamental).copy()
            diag[diag == 0] = 1.0
            hit = fundamental / diag[None, :]  # H[x, d]
            # prob(s -> d) = sum_y P[s, y] * H[y, d]
            p_row = P[si, :] @ hit
            # Accumulated-size expectation restricted to reaching d:
            #   A[y, d] = sum_z size(z) * H[z, d] * N[y, z]
            #           - H[y, d] * sum_z size(z) * H[z, d] * N[d, z]
            m_mat = sizes[:, None] * hit
            nm = fundamental @ m_mat
            a_mat = nm - hit * np.diag(nm)[None, :]
            acc_row = P[si, :] @ a_mat
            with np.errstate(invalid="ignore", divide="ignore"):
                d_row = sizes[si] + np.where(p_row > 0, acc_row / p_row, np.nan)
            for di, d_bid in enumerate(kept):
                prob[s_bid, d_bid] = p_row[di]
                dist[s_bid, d_bid] = d_row[di]
        super().__init__(
            cfg,
            [array("d", row.tolist()) for row in prob],
            [array("d", row.tolist()) for row in dist],
        )
        self.pruned = pruned


def build_reaching_profile(
    cfg: ControlFlowGraph,
    method: str = "empirical",
    pruned: Optional[PrunedCFG] = None,
    max_lookahead: int = 4096,
) -> ReachingProfile:
    """Factory over the two estimators (``"empirical"`` or ``"markov"``)."""
    if method == "empirical":
        return EmpiricalReachingProfile(cfg, max_lookahead=max_lookahead)
    if method == "markov":
        if pruned is None:
            from repro.profiling.pruning import prune_cfg

            pruned = prune_cfg(cfg)
        return MarkovReachingProfile(pruned)
    raise ValueError(f"unknown reaching method {method!r}")
