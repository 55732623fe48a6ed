"""Dynamic instruction traces.

A :class:`Trace` is the interface between the functional front-end and
everything downstream: the profiler, the spawning-policy analyses and the
clustered SpMT timing simulator are all trace-driven, mirroring the paper's
ATOM-based methodology.

A trace is its program plus its :class:`~repro.exec.columns.TraceColumns`
— flat columns and position indexes that the executor builds in its one
loop and the artifact cache stores as they are.  :class:`DynInst` is a
lazy per-instruction view derived from the program and the columns,
built only on request (by the legacy simulator core, the sanitizer's
oracle checks and tests).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.exec.columns import F_BRANCH, F_LOAD, F_STORE, F_TAKEN, TraceColumns
from repro.isa.instructions import Opcode
from repro.isa.program import Program


class DynInst:
    """One executed instruction.

    ``srcs``/``src_values`` include every register read; ``dst``/``dst_value``
    the register written (if any).  ``addr`` is the word address touched by a
    load or store.  ``taken``/``next_pc`` record the control outcome.
    """

    __slots__ = (
        "pc",
        "op",
        "dst",
        "dst_value",
        "srcs",
        "src_values",
        "addr",
        "taken",
        "next_pc",
    )

    def __init__(
        self,
        pc: int,
        op: Opcode,
        dst: Optional[int],
        dst_value,
        srcs: Tuple[int, ...],
        src_values: Tuple,
        addr: Optional[int],
        taken: Optional[bool],
        next_pc: int,
    ):
        self.pc = pc
        self.op = op
        self.dst = dst
        self.dst_value = dst_value
        self.srcs = srcs
        self.src_values = src_values
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc

    @property
    def is_branch(self) -> bool:
        return self.taken is not None

    @property
    def is_load(self) -> bool:
        return self.op is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.op is Opcode.STORE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynInst(pc={self.pc}, op={self.op.value})"


class Trace:
    """A complete dynamic execution of a program: its program and columns.

    The columns are the :class:`~repro.exec.columns.TraceColumns`.  The
    executor (:meth:`repro.exec.machine.Machine.run`) builds both in
    its one loop and the artifact cache stores and restores both; the
    constructor rejects columns that are inconsistent with each other or
    with the program.  The :class:`DynInst` objects are a lazy view,
    built from the program and the columns only when ``insts``,
    indexing or iteration first asks for them (the legacy simulator core
    and tests do); everything else reads the columns.

    Derived views the rest of the system relies on:

    - ``positions_of(pc)``/``next_occurrence``: bisects of the stored pc
      index, used by the SpMT simulator to locate the next occurrence of
      a CQIP.
    - ``value_of_register_at``: a bisect of the stored write index.
    - ``register_deps``/``memory_deps``: for each position, the producing
      position of each register source (and of the loaded value), read
      from the operand-slot and ``mem_dep`` columns.
    """

    def __init__(self, program: Program, columns: TraceColumns):
        columns.check(len(program))
        self.program = program
        #: The trace's columns and indexes (never change once set, so
        #: readers need no lock).
        self.columns = columns
        self._length = len(columns)
        self._insts: Optional[List[DynInst]] = None
        self._register_deps: Optional[List[Tuple[int, ...]]] = None

    @property
    def insts(self) -> List[DynInst]:
        """The instruction objects (derived from the columns on first use).

        Each field comes from the program or the columns: ``op``,
        ``srcs`` and the register of ``dst`` from the static instruction
        (``dst`` is None when nothing was written), ``src_values`` from
        the operand producers' written values (0 before any write),
        ``addr`` and ``taken`` from the flags, and ``next_pc`` from the
        following position (``pc + 1`` after the final HALT).
        """
        insts = self._insts
        if insts is None:
            cols = self.columns
            static = self.program.instructions
            pcs = cols.pc
            dep0, dep1 = cols.dep0, cols.dep1
            values = cols.dst_value
            insts = []
            append = insts.append
            last = self._length - 1
            for pos, (pc, bits, addr, value) in enumerate(
                zip(pcs, cols.flags, cols.addr, values)
            ):
                inst = static[pc]
                srcs = inst.srcs
                if not srcs:
                    src_values: tuple = ()
                else:
                    producer = dep0[pos]
                    first = values[producer] if producer >= 0 else 0
                    if len(srcs) == 1:
                        src_values = (first,)
                    else:
                        producer = dep1[pos]
                        src_values = (
                            first,
                            values[producer] if producer >= 0 else 0,
                        )
                append(
                    DynInst(
                        pc,
                        inst.op,
                        None if value is None else inst.dst,
                        value,
                        srcs,
                        src_values,
                        addr if bits & (F_LOAD | F_STORE) else None,
                        bool(bits & F_TAKEN) if bits & F_BRANCH else None,
                        pcs[pos + 1] if pos < last else pc + 1,
                    )
                )
            self._insts = insts
        return insts

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, pos: int) -> DynInst:
        return self.insts[pos]

    def __iter__(self):
        return iter(self.insts)

    def pc_at(self, pos: int) -> int:
        """The pc executed at trace position ``pos``."""
        return self.columns.pc[pos]

    # ------------------------------------------------------------------
    # pc index.
    # ------------------------------------------------------------------

    def positions_of(self, pc: int) -> Sequence[int]:
        """All trace positions at which ``pc`` executed (ascending)."""
        return self.columns.positions_of(pc)

    def next_occurrence(self, pc: int, after: int, before: int) -> Optional[int]:
        """First position of ``pc`` in the open interval (after, before).

        Called once per spawn attempt per candidate pair, so it bisects
        the stored pc index rather than scanning the trace linearly.
        """
        return self.columns.next_occurrence(pc, after, before)

    # ------------------------------------------------------------------
    # Dataflow dependences.
    # ------------------------------------------------------------------

    @property
    def register_deps(self) -> List[Tuple[int, ...]]:
        """Per position: producing position of each register source (-1 if live-in)."""
        deps = self._register_deps
        if deps is None:
            cols = self.columns
            dep0, dep1 = cols.dep0, cols.dep1
            arity = [len(inst.srcs) for inst in self.program.instructions]
            deps = self._register_deps = [
                (dep0[pos], dep1[pos]) if count == 2
                else (dep0[pos],) if count == 1
                else ()
                for pos, count in enumerate(map(arity.__getitem__, cols.pc))
            ]
        return deps

    @property
    def memory_deps(self) -> Sequence[int]:
        """Per position: position of the store feeding this load (-1 if none)."""
        return self.columns.mem_dep

    # ------------------------------------------------------------------
    # Register state reconstruction (for live-in values).
    # ------------------------------------------------------------------

    def value_of_register_at(self, reg: int, pos: int):
        """Architectural value of ``reg`` just before position ``pos``.

        A bisect of the stored per-register write index, so it is cheap
        enough for the value predictors' spawn-time base values.
        """
        return self.columns.value_of_register_at(reg, pos)
