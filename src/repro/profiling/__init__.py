"""Profile analysis: dynamic CFG, pruning, reaching probabilities, deps.

This package implements Section 3.1 of the paper: build a weighted dynamic
control-flow graph from a profile run, prune it to an instruction-coverage
target (``prune_cfg`` defaults to the paper's 90%; profile selection
uses 99%, DESIGN.md §6), rewiring edges proportionally, and compute for
every ordered pair of basic blocks the probability of reaching the second
after the first and the expected number of instructions in between.

Two interchangeable estimators are provided:

- :class:`MarkovReachingProfile` — the paper's formulation: absorbing
  Markov-chain computation on the pruned CFG (source node may appear only
  as the first element of a sequence, destination only as the last); an
  ablation, and the only code that needs numpy.
- :class:`EmpiricalReachingProfile` — direct measurement over the profile
  trace with a lookahead cap; used as the default because it needs no
  Markov assumption and yields distances for free.
"""

from repro.profiling.cfg import BasicBlock, ControlFlowGraph
from repro.profiling.pruning import PrunedCFG, prune_cfg
from repro.profiling.reaching import (
    EmpiricalReachingProfile,
    MarkovReachingProfile,
    ReachingProfile,
)
from repro.profiling.dependence import PairDependenceProfile, profile_pair_dependences

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "PrunedCFG",
    "prune_cfg",
    "ReachingProfile",
    "EmpiricalReachingProfile",
    "MarkovReachingProfile",
    "PairDependenceProfile",
    "profile_pair_dependences",
]
