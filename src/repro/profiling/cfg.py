"""Dynamic control-flow graph construction from a trace.

Nodes are basic blocks (identified by their leader pc), edges are observed
control transfers weighted by traversal frequency — exactly the structure
the paper builds from its profiling run.  The graph is read off the
trace's ``pc`` and ``flags`` columns and its ``next_pc`` field, so
profiling builds no per-instruction objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Tuple

from repro.exec.columns import F_BRANCH, F_UNCOND
from repro.exec.trace import Trace

#: Flag bits of an instruction that ends a basic block: a conditional
#: branch or an unconditional transfer (JUMP/CALL/RET).
_CONTROL = F_BRANCH | F_UNCOND


@dataclass
class BasicBlock:
    """A dynamic basic block.

    ``size`` is the number of instructions from the leader to the block end
    (identical across executions because the leader set is global).
    """

    bid: int
    start_pc: int
    size: int
    count: int = 0


class ControlFlowGraph:
    """Weighted dynamic CFG plus the dynamic block sequence.

    ``sequence`` preserves the profile run as a list of
    ``(block_id, trace_position)`` pairs; the empirical reaching estimator
    and the spawning simulator both consume it.
    """

    def __init__(
        self,
        blocks: List[BasicBlock],
        edges: Dict[Tuple[int, int], int],
        sequence: List[Tuple[int, int]],
        total_instructions: int,
    ):
        self.blocks = blocks
        self.edges = edges
        self.sequence = sequence
        self.total_instructions = total_instructions
        self.by_pc: Dict[int, int] = {b.start_pc: b.bid for b in blocks}
        self.succs: Dict[int, List[int]] = {b.bid: [] for b in blocks}
        self.preds: Dict[int, List[int]] = {b.bid: [] for b in blocks}
        for (u, v) in edges:
            self.succs[u].append(v)
            self.preds[v].append(u)

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of_pc(self, pc: int) -> int:
        """Block id whose leader is ``pc`` (KeyError if not a leader)."""
        return self.by_pc[pc]

    def out_weight(self, bid: int) -> int:
        """Total weight of edges leaving ``bid``."""
        return sum(self.edges[(bid, v)] for v in self.succs[bid])

    @classmethod
    def from_trace(cls, trace: Trace) -> "ControlFlowGraph":
        """Build the weighted dynamic CFG of a profile run.

        Leaders are: the first executed pc, every control-transfer target,
        and every fall-through point after a control instruction.  The
        dynamic stream is then segmented at leaders and control transfers.
        """
        if len(trace) == 0:
            raise ValueError("cannot build a CFG from an empty trace")

        columns = trace.columns
        pcs = columns.pc
        flags = columns.flags
        n = len(trace)
        control = [pos for pos, bits in enumerate(flags) if bits & _CONTROL]
        leaders = {pcs[0]}
        # A control transfer's next pc is the following position's pc
        # (the trace ends at HALT, which is not a control transfer).
        leaders.update([pcs[pos + 1] for pos in control])
        leaders.update([pcs[pos] + 1 for pos in control])

        # A block ends at a control transfer, before the next leader, or
        # at the end of the trace.
        ends = [
            pos
            for pos, bits, following in zip(range(n), flags, islice(pcs, 1, None))
            if bits & _CONTROL or following in leaders
        ]
        ends.append(n - 1)

        blocks: List[BasicBlock] = []
        by_pc: Dict[int, int] = {}
        edges: Dict[Tuple[int, int], int] = {}
        sequence: List[Tuple[int, int]] = []

        start = 0
        prev_block = -1
        for end in ends:
            size = end + 1 - start
            start_pc = pcs[start]
            if start_pc in by_pc:
                bid = by_pc[start_pc]
                # A later, shorter instance can appear if a new leader was
                # discovered mid-block; keep the minimum consistent size.
                if blocks[bid].size != size:
                    blocks[bid].size = min(blocks[bid].size, size)
            else:
                bid = len(blocks)
                by_pc[start_pc] = bid
                blocks.append(BasicBlock(bid=bid, start_pc=start_pc, size=size))
            blocks[bid].count += 1
            sequence.append((bid, start))
            if prev_block >= 0:
                key = (prev_block, bid)
                edges[key] = edges.get(key, 0) + 1
            prev_block = bid
            start = end + 1
        return cls(blocks, edges, sequence, total_instructions=n)
