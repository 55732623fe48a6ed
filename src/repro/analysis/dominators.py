"""Dominator/postdominator trees and natural-loop detection.

Implements the Cooper-Harvey-Kennedy iterative dominator algorithm ("A
Simple, Fast Dominance Algorithm") over the static CFG.  Postdominators run
the same engine on the reversed graph rooted at a virtual exit that gathers
every block without successors; natural loops are recovered from back edges
whose head dominates their tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.cfg import StaticCFG

#: Virtual node id used as the root of the postdominator tree.
VIRTUAL_EXIT = -1


class DominatorTree:
    """Immediate-dominator mapping plus O(depth) dominance queries."""

    def __init__(self, root: int, idom: Dict[int, int]):
        self.root = root
        #: node -> immediate dominator (the root maps to itself).
        self.idom = idom
        self._depth: Dict[int, int] = {root: 0}
        for node in idom:
            self._depth_of(node)

    def _depth_of(self, node: int) -> int:
        depth = self._depth.get(node)
        if depth is None:
            depth = self._depth_of(self.idom[node]) + 1
            self._depth[node] = depth
        return depth

    def __contains__(self, node: int) -> bool:
        return node in self.idom

    def dominates(self, a: int, b: int) -> bool:
        """Return True when every root-to-``b`` path passes through ``a``.

        Nodes absent from the tree (unreachable from the root) dominate
        nothing and are dominated by nothing.
        """
        if a not in self.idom or b not in self.idom:
            return False
        while self._depth[b] > self._depth[a]:
            b = self.idom[b]
        return a == b


def _solve(root: int, succs_of, preds_of) -> DominatorTree:
    """Cooper-Harvey-Kennedy on the subgraph reachable from ``root``."""
    # Reverse postorder over the reachable subgraph (iterative DFS).
    order: List[int] = []
    seen: Set[int] = {root}
    stack = [(root, iter(succs_of(root)))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for nxt in it:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(succs_of(nxt))))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    rpo = list(reversed(order))
    rpo_num = {node: i for i, node in enumerate(rpo)}

    idom: Dict[int, int] = {root: root}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_num[a] > rpo_num[b]:
                a = idom[a]
            while rpo_num[b] > rpo_num[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == root:
                continue
            new_idom: Optional[int] = None
            for pred in preds_of(node):
                if pred not in idom:
                    continue
                new_idom = (
                    pred if new_idom is None else intersect(pred, new_idom)
                )
            if new_idom is not None and idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return DominatorTree(root, idom)


def dominator_tree(cfg: StaticCFG) -> DominatorTree:
    """Return the dominator tree of ``cfg`` rooted at the entry block."""
    return _solve(cfg.entry, cfg.successors, cfg.predecessors)


def postdominator_tree(cfg: StaticCFG) -> DominatorTree:
    """Postdominators, rooted at a virtual exit joining all exit blocks.

    Exit blocks are those with no successors (halt blocks, rets that no
    call continuation absorbs, and fall-off-the-end blocks).  Programs with
    no reachable exit (a provable infinite loop) yield a tree containing
    only the virtual exit.
    """
    exits = [b.bid for b in cfg.blocks if not cfg.successors(b.bid)]

    def succs_of(node: int) -> List[int]:
        if node == VIRTUAL_EXIT:
            return exits
        return cfg.predecessors(node)

    def preds_of(node: int) -> List[int]:
        result = cfg.successors(node)
        if node in exits_set:
            result = result + [VIRTUAL_EXIT]
        return result

    exits_set = set(exits)
    return _solve(VIRTUAL_EXIT, succs_of, preds_of)


@dataclass(frozen=True)
class NaturalLoop:
    """A natural loop: ``head`` dominates every block in ``body``."""

    head: int
    back_edges: tuple
    body: frozenset


def natural_loops(
    cfg: StaticCFG, dom: Optional[DominatorTree] = None
) -> List[NaturalLoop]:
    """Return the natural loops of ``cfg``; loops sharing a head are merged."""
    dom = dom or dominator_tree(cfg)
    tails_of: Dict[int, List[int]] = {}
    for block in cfg.blocks:
        for dst in cfg.successors(block.bid):
            if dom.dominates(dst, block.bid):
                tails_of.setdefault(dst, []).append(block.bid)

    loops: List[NaturalLoop] = []
    for head in sorted(tails_of):
        body: Set[int] = {head}
        stack = [t for t in tails_of[head] if t != head]
        body.update(tails_of[head])
        while stack:
            node = stack.pop()
            for pred in cfg.predecessors(node):
                if pred not in body:
                    body.add(pred)
                    stack.append(pred)
        loops.append(
            NaturalLoop(
                head=head,
                back_edges=tuple(sorted(tails_of[head])),
                body=frozenset(body),
            )
        )
    return loops
