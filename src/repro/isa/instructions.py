"""Opcodes, instruction encoding and functional-unit classification.

The functional-unit mix and latencies follow the experimental framework of
the paper (Section 4.1): 2 simple integer units (1 cycle), 2 load/store
units (1 cycle address calculation + cache access), 1 integer multiplier
(4 cycles), 2 simple FP units (4 cycles), 1 FP multiplier (6 cycles) and
1 FP divider (17 cycles).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class Opcode(enum.Enum):
    """Every operation understood by the functional executor."""

    # Simple integer ALU (1 cycle).
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SLT = "slt"  # set-less-than (signed)
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SHLI = "shli"
    SHRI = "shri"
    SLTI = "slti"
    LI = "li"  # load immediate
    MOV = "mov"

    # Integer multiply (4 cycles).
    MUL = "mul"

    # Integer divide / modulo — share the FP divider (17 cycles).
    DIV = "div"
    REM = "rem"

    # Simple FP (4 cycles).
    FADD = "fadd"
    FSUB = "fsub"
    FCVT = "fcvt"  # int -> float

    # FP multiply (6 cycles) and divide (17 cycles).
    FMUL = "fmul"
    FDIV = "fdiv"

    # Memory (1 cycle + cache access latency).
    LOAD = "load"
    STORE = "store"

    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BEQZ = "beqz"
    BNEZ = "bnez"
    JUMP = "jump"
    CALL = "call"
    RET = "ret"

    # Misc.
    NOP = "nop"
    HALT = "halt"


class FuClass(enum.Enum):
    """Functional-unit classes of the clustered thread units."""

    SIMPLE_INT = "simple_int"
    LDST = "ldst"
    INT_MUL = "int_mul"
    FP_SIMPLE = "fp_simple"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"


#: Execution latency per functional-unit class (paper Section 4.1).  Load
#: latency excludes the cache access, which the timing model adds on top.
FU_LATENCY = {
    FuClass.SIMPLE_INT: 1,
    FuClass.LDST: 1,
    FuClass.INT_MUL: 4,
    FuClass.FP_SIMPLE: 4,
    FuClass.FP_MUL: 6,
    FuClass.FP_DIV: 17,
}

#: Number of functional units of each class per thread unit.
FU_COUNT = {
    FuClass.SIMPLE_INT: 2,
    FuClass.LDST: 2,
    FuClass.INT_MUL: 1,
    FuClass.FP_SIMPLE: 2,
    FuClass.FP_MUL: 1,
    FuClass.FP_DIV: 1,
}

#: Dense ordinal view of the FU classes for the event simulator core:
#: ``FU_CLASSES[i]`` is the class with ordinal ``i``, ``FU_INDEX`` maps a
#: class back to its ordinal, and ``FU_LIMITS[i]``/``FU_LATENCY_BY_INDEX[i]``
#: mirror :data:`FU_COUNT`/:data:`FU_LATENCY` as flat tuples so the hot loop
#: indexes integers instead of hashing enum members.
FU_CLASSES = tuple(FuClass)
FU_INDEX = {fu: index for index, fu in enumerate(FU_CLASSES)}
FU_LIMITS = tuple(FU_COUNT[fu] for fu in FU_CLASSES)
FU_LATENCY_BY_INDEX = tuple(FU_LATENCY[fu] for fu in FU_CLASSES)

#: Conditional branches (have an outcome recorded in the trace).
BRANCH_OPS = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BEQZ, Opcode.BNEZ}
)

#: All control transfers (end a fetch group when taken).
CONTROL_OPS = BRANCH_OPS | {Opcode.JUMP, Opcode.CALL, Opcode.RET}

_FU_OF_OP = {
    Opcode.MUL: FuClass.INT_MUL,
    Opcode.DIV: FuClass.FP_DIV,
    Opcode.REM: FuClass.FP_DIV,
    Opcode.FADD: FuClass.FP_SIMPLE,
    Opcode.FSUB: FuClass.FP_SIMPLE,
    Opcode.FCVT: FuClass.FP_SIMPLE,
    Opcode.FMUL: FuClass.FP_MUL,
    Opcode.FDIV: FuClass.FP_DIV,
    Opcode.LOAD: FuClass.LDST,
    Opcode.STORE: FuClass.LDST,
}


def fu_class(op: Opcode) -> FuClass:
    """Return the functional-unit class that executes ``op``.

    Control-flow and simple ALU operations use the simple integer units.
    """
    return _FU_OF_OP.get(op, FuClass.SIMPLE_INT)


def latency_of(op: Opcode) -> int:
    """Execution latency of ``op`` excluding cache access time."""
    return FU_LATENCY[fu_class(op)]


def is_branch_op(op: Opcode) -> bool:
    """True for conditional branches."""
    return op in BRANCH_OPS


def is_control_op(op: Opcode) -> bool:
    """True for any control transfer (branch, jump, call, return)."""
    return op in CONTROL_OPS


@dataclass(frozen=True)
class Instruction:
    """A single static instruction.

    ``dst`` and ``srcs`` are register numbers (0..63), with at most two
    sources; register 0 is hardwired to zero.  ``imm`` holds immediates
    and load/store offsets.  ``target`` is the destination pc for control
    transfers (resolved from a label at assembly time).
    """

    op: Opcode
    dst: Optional[int] = None
    srcs: Tuple[int, ...] = field(default=())
    imm: Optional[int] = None
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dst is not None and not 0 <= self.dst < 64:
            raise ValueError(f"destination register out of range: {self.dst}")
        if len(self.srcs) > 2:
            # The interpreter and the trace's operand slots read at most two.
            raise ValueError(f"at most two source registers, got {len(self.srcs)}")
        for reg in self.srcs:
            if not 0 <= reg < 64:
                raise ValueError(f"source register out of range: {reg}")

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    @property
    def is_control(self) -> bool:
        return self.op in CONTROL_OPS

    @property
    def is_mem(self) -> bool:
        return self.op in (Opcode.LOAD, Opcode.STORE)

    def __str__(self) -> str:  # pragma: no cover - convenience only
        parts = [self.op.value]
        if self.dst is not None:
            parts.append(f"r{self.dst}")
        parts.extend(f"r{s}" for s in self.srcs)
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"@{self.target}")
        return " ".join(parts)
