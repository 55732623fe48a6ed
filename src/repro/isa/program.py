"""Static program representation: an instruction sequence plus symbol table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set

from repro.isa.instructions import Instruction, Opcode


@dataclass
class Program:
    """A fully-linked program.

    ``instructions[pc]`` is the instruction at program counter ``pc``.
    ``labels`` maps symbolic names (subroutine entries, loop heads) to pcs —
    kept for diagnostics and for the static heuristics that need call sites.
    """

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    name: str = "program"
    #: Initial data-memory image (word address -> value), set up by the
    #: workload generators before execution.
    initial_memory: Dict[int, int] = field(default_factory=dict)
    #: Acknowledged lint findings: rule id (``"dead-store"``) or
    #: pc-qualified rule (``"dead-store@17"``) -> one-line rationale.
    #: ``repro.analysis.lint`` drops matching diagnostics.
    lint_suppressions: Dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def validate(self) -> None:
        """Check that every control transfer targets a valid pc.

        Raises ``ValueError`` on dangling targets so that workload bugs fail
        fast instead of producing nonsense traces.
        """
        size = len(self.instructions)
        for pc, inst in enumerate(self.instructions):
            if inst.is_control and inst.op is not Opcode.RET:
                if inst.target is None:
                    raise ValueError(f"pc {pc}: {inst.op.value} without target")
                if not 0 <= inst.target < size:
                    raise ValueError(
                        f"pc {pc}: target {inst.target} outside program of size {size}"
                    )

    # ------------------------------------------------------------------
    # Static structure queries used by the heuristic spawning policies.
    # ------------------------------------------------------------------

    def backward_branch_pcs(self) -> List[int]:
        """pcs of conditional branches or jumps whose target precedes them."""
        result = []
        for pc, inst in enumerate(self.instructions):
            if inst.is_control and inst.target is not None and inst.target <= pc:
                result.append(pc)
        return result

    def loop_heads(self) -> Set[int]:
        """Targets of backward control transfers (static loop entries)."""
        return {
            self.instructions[pc].target
            for pc in self.backward_branch_pcs()
            if self.instructions[pc].target is not None
        }

    def call_sites(self) -> List[int]:
        """pcs of all subroutine calls."""
        return [
            pc
            for pc, inst in enumerate(self.instructions)
            if inst.op is Opcode.CALL
        ]
