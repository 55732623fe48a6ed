"""Functional interpreter producing dynamic traces.

The machine executes a :class:`~repro.isa.program.Program` architecturally
(no timing) and records every retired instruction with operand values,
memory addresses and branch outcomes — the information the profile analysis,
value predictors and the trace-driven SpMT simulator need.

:meth:`Machine.run` builds the whole trace in its one execution loop: it
appends each outcome to the columns of
:class:`~repro.exec.columns.TraceColumns`, tracks the last writer of
every register and the last store to every address for the dependence
columns, and collects the read, write and pc position indexes.  An
executed trace therefore carries its columns and indexes from birth and
builds no :class:`~repro.exec.trace.DynInst` objects; :meth:`Machine.step`
wraps the same interpreter semantics (:meth:`Machine._execute`) in one
``DynInst`` per call.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional

from repro.errors import ExecutionError, WorkloadError
from repro.exec.columns import (
    F_LOAD,
    F_STORE,
    F_TAKEN,
    NUM_REGS,
    TraceColumns,
    static_flags,
)
from repro.exec.trace import DynInst, Trace
from repro.isa.instructions import Opcode
from repro.isa.program import Program

_MASK = (1 << 32) - 1
_SIGN = 1 << 31

#: Step budget used when the caller does not supply one.
DEFAULT_MAX_STEPS = 2_000_000


def _wrap32(value: int) -> int:
    """Wrap integer results to 32-bit two's complement."""
    value &= _MASK
    return value - (1 << 32) if value & _SIGN else value


class Machine:
    """Architectural state: 64 registers, word-addressed memory, call stack."""

    def __init__(self, program: Program):
        program.validate()
        self.program = program
        self.regs: List = [0] * 64
        self.memory: Dict[int, object] = dict(program.initial_memory)
        self.call_stack: List[int] = []
        self.pc = 0
        self.halted = False
        #: Per static pc: (mnemonic, opcode, dst, srcs, imm, target), so
        #: the interpreter dispatches on an interned string instead of
        #: looking enum members up on every executed instruction.
        self._decoded = [
            (inst.op.value, inst.op, inst.dst, inst.srcs, inst.imm, inst.target)
            for inst in program
        ]

    def _execute(self) -> tuple:
        """Execute one instruction; return its outcome in ``DynInst`` order.

        The one copy of the interpreter semantics: :meth:`step` wraps the
        outcome in a :class:`DynInst`, :meth:`run` records it in the
        trace's columns.  Branches are ordered by dynamic frequency
        over the workload suite.
        """
        if self.halted:
            raise ExecutionError("machine is halted")
        pc = self.pc
        if not 0 <= pc < len(self._decoded):
            raise ExecutionError(f"pc {pc} outside program")
        name, op, dst, srcs, imm, target = self._decoded[pc]
        # Register 0 is hard-wired to zero (writes below never touch it),
        # so the reads need no special case.
        regs = self.regs
        src_values = tuple([regs[reg] for reg in srcs])
        dst_value = None
        addr = None
        taken: Optional[bool] = None
        next_pc = pc + 1

        if name == "load":
            addr = int(src_values[0]) + (imm or 0)
            dst_value = self.memory.get(addr, 0)
        elif name == "addi":
            dst_value = src_values[0] + imm
        elif name == "add":
            dst_value = src_values[0] + src_values[1]
        elif name == "li":
            dst_value = imm
        elif name == "store":
            addr = int(src_values[1]) + (imm or 0)
            self.memory[addr] = src_values[0]
        elif name == "andi":
            dst_value = src_values[0] & imm
        elif name == "bnez":
            taken = src_values[0] != 0
        elif name == "mov":
            dst_value = src_values[0]
        elif name == "bge":
            taken = src_values[0] >= src_values[1]
        elif name == "bne":
            taken = src_values[0] != src_values[1]
        elif name == "blt":
            taken = src_values[0] < src_values[1]
        elif name == "jump":
            next_pc = target
        elif name == "xor":
            dst_value = src_values[0] ^ src_values[1]
        elif name == "call":
            self.call_stack.append(pc + 1)
            next_pc = target
        elif name == "ret":
            if not self.call_stack:
                raise ExecutionError(f"pc {pc}: return with empty call stack")
            next_pc = self.call_stack.pop()
        elif name == "shri":
            dst_value = (src_values[0] & _MASK) >> (imm & 31)
        elif name == "shli":
            dst_value = src_values[0] << (imm & 31)
        elif name == "beqz":
            taken = src_values[0] == 0
        elif name == "mul":
            dst_value = src_values[0] * src_values[1]
        elif name == "beq":
            taken = src_values[0] == src_values[1]
        elif name == "sub":
            dst_value = src_values[0] - src_values[1]
        elif name == "and":
            dst_value = src_values[0] & src_values[1]
        elif name == "or":
            dst_value = src_values[0] | src_values[1]
        elif name == "shl":
            dst_value = src_values[0] << (src_values[1] & 31)
        elif name == "shr":
            dst_value = (src_values[0] & _MASK) >> (src_values[1] & 31)
        elif name == "slt":
            dst_value = int(src_values[0] < src_values[1])
        elif name == "ori":
            dst_value = src_values[0] | imm
        elif name == "xori":
            dst_value = src_values[0] ^ imm
        elif name == "slti":
            dst_value = int(src_values[0] < imm)
        elif name == "div":
            dst_value = (
                0 if src_values[1] == 0 else int(src_values[0] / src_values[1])
            )
        elif name == "rem":
            dst_value = (
                0
                if src_values[1] == 0
                else src_values[0] - int(src_values[0] / src_values[1]) * src_values[1]
            )
        elif name == "fadd":
            dst_value = float(src_values[0]) + float(src_values[1])
        elif name == "fsub":
            dst_value = float(src_values[0]) - float(src_values[1])
        elif name == "fmul":
            dst_value = float(src_values[0]) * float(src_values[1])
        elif name == "fdiv":
            denom = float(src_values[1])
            dst_value = 0.0 if denom == 0.0 else float(src_values[0]) / denom
        elif name == "fcvt":
            dst_value = float(src_values[0])
        elif name == "nop":
            pass
        elif name == "halt":
            self.halted = True
        else:  # pragma: no cover - exhaustive over Opcode
            raise ExecutionError(f"unimplemented opcode {op}")

        if taken:
            next_pc = target
        if dst_value is None:
            dst = None
        elif dst:
            if isinstance(dst_value, int):
                dst_value = _wrap32(dst_value)
            regs[dst] = dst_value
        self.pc = next_pc
        return (pc, op, dst, dst_value, srcs, src_values, addr, taken, next_pc)

    def step(self) -> DynInst:
        """Execute one instruction and return its dynamic record."""
        return DynInst(*self._execute())

    def run(self, max_steps: Optional[int] = None) -> Trace:
        """Execute to HALT, returning the dynamic trace.

        One loop builds the whole trace: the per-position columns, the
        register and memory dependences (from a last-writer table per
        register and a last-store table per address) and the position
        lists of the read, write and pc indexes, which
        :class:`TraceColumns` packs into typed arrays.

        The loop allocates a few small tuples per instruction and no
        reference cycles, so the cyclic garbage collector is switched off
        while it runs (its collections would only rescan those tuples);
        the caller's collector state is restored on return and on error.

        Raises :class:`~repro.errors.WorkloadError` if the program does not
        halt within ``max_steps`` (default :data:`DEFAULT_MAX_STEPS`) —
        runaway loops in a workload are a bug, not data.
        """
        if max_steps is None:
            max_steps = DEFAULT_MAX_STEPS
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run(max_steps)
        finally:
            if collecting:
                gc.enable()

    def _run(self, max_steps: int) -> Trace:
        """The execution loop of :meth:`run`."""
        program = self.program
        bits_of = [static_flags(inst.op) for inst in program]
        columns: List[list] = [[] for _ in range(7)]
        pcs, flags, addrs, mem_deps, dep0s, dep1s, dst_values = columns
        (
            pc_append,
            flags_append,
            addr_append,
            mem_dep_append,
            dep0_append,
            dep1_append,
            dst_value_append,
        ) = [column.append for column in columns]
        reads_of: List[List[int]] = [[] for _ in range(NUM_REGS)]
        writes_of: List[List[int]] = [[] for _ in range(NUM_REGS)]
        pc_positions: List[List[int]] = [[] for _ in program]
        read_append = [positions.append for positions in reads_of]
        write_append = [positions.append for positions in writes_of]
        pc_position_append = [positions.append for positions in pc_positions]
        # Register 0 is never recorded as written, so its entry stays -1.
        last_writer = [-1] * NUM_REGS
        last_store: Dict[int, int] = {}
        halt = Opcode.HALT
        execute = self._execute
        for pos in range(max_steps):
            (pc, op, dst, dst_value, srcs, _src_values, addr, taken,
             _next_pc) = execute()
            bits = bits_of[pc]
            pc_append(pc)
            flags_append(bits | F_TAKEN if taken else bits)
            pc_position_append[pc](pos)
            dst_value_append(dst_value)
            # Producers of the operand slots; each non-zero register
            # read is indexed once per position.
            if srcs:
                r0 = srcs[0]
                dep0_append(last_writer[r0])
                if r0:
                    read_append[r0](pos)
                if len(srcs) == 2:
                    r1 = srcs[1]
                    dep1_append(last_writer[r1])
                    if r1 and r1 != r0:
                        read_append[r1](pos)
                else:
                    dep1_append(-1)
            else:
                dep0_append(-1)
                dep1_append(-1)
            if bits & F_LOAD:
                addr_append(addr)
                mem_dep_append(last_store.get(addr, -1))
            else:
                mem_dep_append(-1)
                if bits & F_STORE:
                    addr_append(addr)
                    last_store[addr] = pos
                else:
                    addr_append(-1)
            if dst:
                last_writer[dst] = pos
                write_append[dst](pos)
            if op is halt:
                return Trace(
                    program,
                    TraceColumns(
                        program, pcs, flags, addrs, mem_deps, dep0s, dep1s,
                        dst_values, reads_of, writes_of, pc_positions,
                    ),
                )
        raise WorkloadError(
            f"program {self.program.name!r} did not halt",
            workload=self.program.name,
            max_steps=max_steps,
            pc=self.pc,
        )


def run_program(program: Program, max_steps: Optional[int] = None) -> Trace:
    """Convenience wrapper: execute ``program`` from a fresh machine."""
    return Machine(program).run(max_steps=max_steps)
