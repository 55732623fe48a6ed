"""Columnar (struct-of-arrays) trace representation.

A trace is its program plus one :class:`TraceColumns`: flat columns
indexed by trace position, small per-pc tables of the static facts the
per-instruction readers need, and CSR position indexes.  Every column is
a typed ``array`` (4-byte for positions, 8-byte for addresses) or a
tuple of small ints (only the written values are a list of Python
numbers), so the artifact cache decodes a trace with no
per-instruction Python pass and no objects for the cyclic collector to
walk, and the event core's inner loop (:mod:`repro.cmt.event_core`) is
all O(1) integer reads with no attribute lookups, enum hashing or
per-instruction allocation.

The executor builds the columns and the indexes in its one execution
loop (:meth:`Machine.run <repro.exec.machine.Machine.run>`), so every
trace carries them from birth.  :meth:`TraceColumns.build` derives the
same columns from a ``Machine.step()`` replay of the trace's program; it
is the independent reference the executor is tested against.

Columns are deterministic pure functions of the program's execution,
which makes them safe to persist content-addressed in the artifact
cache: the ``"trace"`` artifact is the program plus its columns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    BRANCH_OPS,
    FU_INDEX,
    Opcode,
    fu_class,
    latency_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.trace import Trace
    from repro.isa.program import Program

#: Flag bits of the ``flags`` column.
F_BRANCH = 1  #: conditional branch (``DynInst.taken is not None``)
F_TAKEN = 2  #: conditional branch whose recorded outcome is taken
F_UNCOND = 4  #: unconditional transfer (JUMP/CALL/RET) — ends a fetch group
F_LOAD = 8
F_STORE = 16

#: FU ordinal used for both loads and stores.
LDST_INDEX = FU_INDEX[fu_class(Opcode.LOAD)]

#: Architectural registers (register 0 reads as zero and is never written).
NUM_REGS = 64

_UNCOND_OPS = (Opcode.JUMP, Opcode.CALL, Opcode.RET)


def static_flags(op: Opcode) -> int:
    """The flag bits every instance of ``op`` carries (all but ``F_TAKEN``)."""
    if op in BRANCH_OPS:
        return F_BRANCH
    if op in _UNCOND_OPS:
        return F_UNCOND
    if op is Opcode.LOAD:
        return F_LOAD
    if op is Opcode.STORE:
        return F_STORE
    return 0


#: Per static pc tables (one entry per program instruction).
_PC_TABLES = ("fu_of", "lat_of", "reg0_of", "reg1_of")
#: Per trace position columns.
_COLUMNS = ("pc", "flags", "addr", "mem_dep", "dep0", "dep1", "dst_value")
#: CSR indexes, each an offsets array followed by its data array.
_INDEXES = ("reads_off", "reads", "writes_off", "writes", "pc_off", "pc_pos")
_FIELDS = _PC_TABLES + _COLUMNS + _INDEXES

#: Typecode of every array field: positions (and CSR offsets, which are
#: at most the trace length) are 4-byte ``'i'``; an address is a
#: register value plus an offset, so ``addr`` stays 8-byte ``'q'``.
_TYPECODES = dict.fromkeys(("mem_dep", "dep0", "dep1") + _INDEXES, "i")
_TYPECODES["addr"] = "q"

#: The longest trace a 4-byte position column can index.
MAX_POSITIONS = 2**31 - 1


def _csr(lists: Sequence[Sequence[int]]) -> Tuple["array", "array"]:
    """``(offsets, data)`` of per-key ascending position lists.

    The positions of key ``k`` are ``data[offsets[k]:offsets[k + 1]]``.
    """
    data = array("i")
    offsets = array("i", [0])
    for positions in lists:
        data.extend(positions)
        offsets.append(len(data))
    return offsets, data


class TraceColumns:
    """Struct-of-arrays view of one :class:`~repro.exec.trace.Trace`.

    Per static pc (tuples of ``len(program)`` small ints):

    - ``fu_of``: functional-unit class ordinal (see
      :data:`repro.isa.instructions.FU_CLASSES`).
    - ``lat_of``: execution latency (loads still add the cache access on
      top, exactly as ``latency_of``).
    - ``reg0_of``/``reg1_of``: the register of operand slot 0/1, 0 when
      the instruction has no such slot (the interpreter reads at most
      two sources).

    Per trace position:

    - ``pc``: instruction address (tuple of int).
    - ``flags``: bitmask of ``F_BRANCH``/``F_TAKEN``/``F_UNCOND``/
      ``F_LOAD``/``F_STORE`` (tuple of int).
    - ``addr``: word address touched by a load/store (``array('q')``);
      -1 elsewhere, but only the flags say whether an address exists.
    - ``mem_dep``: position of the store feeding this load, -1 if none or
      not a load (``array('i')``).
    - ``dep0``/``dep1``: position of the last write of the register read
      in operand slot 0/1 (``array('i')``), -1 when the slot is empty,
      reads register 0 or reads a register not yet written.
    - ``dst_value``: value written by the instruction (None when no
      destination) — a list of Python numbers.

    CSR indexes (``array('i')``; the entries of key ``k`` are
    ``data[offsets[k]:offsets[k + 1]]``, ascending):

    - ``reads_off``/``reads``: per register, the positions that read it
      (each position once, register 0 never).
    - ``writes_off``/``writes``: per register, the positions that write
      it (register 0 never).
    - ``pc_off``/``pc_pos``: per static pc, the positions it executed at.

    Positions are 4-byte, so a trace holds at most
    :data:`MAX_POSITIONS` instructions.
    """

    __slots__ = _FIELDS + (
        "length",
        "_used_regs",
        "_livein_windows",
        "_prime_cache",
    )

    def __init__(
        self,
        program: "Program",
        pc: Sequence[int],
        flags: Sequence[int],
        addr: Sequence[int],
        mem_dep: Sequence[int],
        dep0: Sequence[int],
        dep1: Sequence[int],
        dst_value: List,
        reads_of: Sequence[Sequence[int]],
        writes_of: Sequence[Sequence[int]],
        pc_positions: Sequence[Sequence[int]],
    ):
        """Assemble the columns of one execution of ``program``.

        The per-position arguments are sequences in trace order; the
        last three are, per register and per static pc, the ascending
        positions of the index (see the class docstring).  The per-pc
        tables come from the program's instructions.
        """
        insts = program.instructions
        self.fu_of = tuple([FU_INDEX[fu_class(inst.op)] for inst in insts])
        self.lat_of = tuple([latency_of(inst.op) for inst in insts])
        self.reg0_of = tuple([inst.srcs[0] if inst.srcs else 0 for inst in insts])
        self.reg1_of = tuple(
            [inst.srcs[1] if len(inst.srcs) > 1 else 0 for inst in insts]
        )
        self.pc = tuple(pc)
        self.flags = tuple(flags)
        self.addr = array("q", addr)
        self.mem_dep = array("i", mem_dep)
        self.dep0 = array("i", dep0)
        self.dep1 = array("i", dep1)
        self.dst_value = dst_value
        self.reads_off, self.reads = _csr(reads_of)
        self.writes_off, self.writes = _csr(writes_of)
        self.pc_off, self.pc_pos = _csr(pc_positions)
        self._derive()

    def _derive(self) -> None:
        """Set the length, the registers with reads and empty memos."""
        self.length = len(self.pc)
        off = self.reads_off
        self._used_regs = tuple(
            reg
            for reg in range(min(NUM_REGS, len(off) - 1))
            if off[reg] < off[reg + 1]
        )
        self._livein_windows: Dict[Tuple[int, int], tuple] = {}
        #: (prime params, pair signature) -> value-predictor training
        #: sequence (see ``repro.cmt.processor.priming_sequence``).
        self._prime_cache: dict = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, trace: "Trace") -> "TraceColumns":
        """Derive the columns of ``trace`` from a ``Machine.step()`` replay.

        The reference derivation: it re-executes the trace's program one
        :class:`~repro.exec.trace.DynInst` record at a time and derives
        every fact from the records, with a last-writer table per
        register and a last-store table per address — independently of
        the executor's loop.
        """
        from repro.exec.machine import Machine

        program = trace.program
        machine = Machine(program)
        pc: List[int] = []
        flags: List[int] = []
        addr: List[int] = []
        mem_dep: List[int] = []
        dep0: List[int] = []
        dep1: List[int] = []
        dst_value: List = []
        reads_of: List[List[int]] = [[] for _ in range(NUM_REGS)]
        writes_of: List[List[int]] = [[] for _ in range(NUM_REGS)]
        pc_positions: List[List[int]] = [[] for _ in range(len(program))]
        last_write: Dict[int, int] = {}
        last_store: Dict[int, int] = {}
        for pos in range(len(trace)):
            if machine.halted:
                break
            record = machine.step()
            op = record.op
            address = -1 if record.addr is None else record.addr
            bits = 0
            if record.taken is not None:
                bits = F_BRANCH | (F_TAKEN if record.taken else 0)
            elif op in _UNCOND_OPS:
                bits = F_UNCOND
            if op is Opcode.LOAD:
                bits |= F_LOAD
                mem_dep.append(last_store.get(address, -1))
            else:
                mem_dep.append(-1)
                if op is Opcode.STORE:
                    bits |= F_STORE
                    last_store[address] = pos
            pc.append(record.pc)
            flags.append(bits)
            addr.append(address)
            producers = [last_write.get(reg, -1) for reg in record.srcs]
            dep0.append(producers[0] if producers else -1)
            dep1.append(producers[1] if len(producers) > 1 else -1)
            for reg in set(record.srcs) - {0}:
                reads_of[reg].append(pos)
            if record.dst:
                writes_of[record.dst].append(pos)
                last_write[record.dst] = pos
            pc_positions[record.pc].append(pos)
            dst_value.append(record.dst_value)
        return cls(
            program, pc, flags, addr, mem_dep, dep0, dep1, dst_value,
            reads_of, writes_of, pc_positions,
        )

    def check(self, n_pcs: int) -> None:
        """Raise ``ValueError`` unless the columns are mutually consistent.

        The trace has at most :data:`MAX_POSITIONS` positions, every
        array field has its layout's typecode (so an artifact in an older
        layout is rejected and rebuilt), every per-position column has
        the trace's length, every per-pc table has ``n_pcs`` entries, and
        every CSR index has one offset per key plus one, starting at 0,
        never decreasing and ending at its data length (the pc index
        covers every position).
        """
        if self.length > MAX_POSITIONS:
            raise ValueError(
                f"trace has {self.length} positions, more than the "
                f"{MAX_POSITIONS} a 4-byte position column indexes"
            )
        for name, code in _TYPECODES.items():
            found = getattr(getattr(self, name), "typecode", None)
            if found != code:
                raise ValueError(
                    f"trace column {name} has typecode {found!r}, "
                    f"expected {code!r}"
                )
        for name in _COLUMNS:
            if len(getattr(self, name)) != self.length:
                raise ValueError(
                    f"trace column {name} has {len(getattr(self, name))} "
                    f"entries, expected {self.length}"
                )
        for name in _PC_TABLES:
            if len(getattr(self, name)) != n_pcs:
                raise ValueError(
                    f"pc table {name} has {len(getattr(self, name))} "
                    f"entries for a program of {n_pcs}"
                )
        if len(self.pc_pos) != self.length:
            raise ValueError("the pc index does not cover the trace")
        for off_name, data_name, keys in (
            ("reads_off", "reads", NUM_REGS),
            ("writes_off", "writes", NUM_REGS),
            ("pc_off", "pc_pos", n_pcs),
        ):
            offsets = getattr(self, off_name)
            if (
                len(offsets) != keys + 1
                or offsets[0] != 0
                or offsets[-1] != len(getattr(self, data_name))
                or any(a > b for a, b in zip(offsets, islice(offsets, 1, None)))
            ):
                raise ValueError(f"trace index {off_name} is not a CSR offset array")

    # -- index queries --------------------------------------------------

    def positions_of(self, pc: int) -> Sequence[int]:
        """All trace positions at which ``pc`` executed (ascending)."""
        if not 0 <= pc < len(self.pc_off) - 1:
            return ()
        return self.pc_pos[self.pc_off[pc]:self.pc_off[pc + 1]]

    def next_occurrence(self, pc: int, after: int, before: int) -> Optional[int]:
        """First position of ``pc`` in the open interval (after, before)."""
        if not 0 <= pc < len(self.pc_off) - 1:
            return None
        pc_pos = self.pc_pos
        hi = self.pc_off[pc + 1]
        i = bisect_right(pc_pos, after, self.pc_off[pc], hi)
        if i < hi and pc_pos[i] < before:
            return pc_pos[i]
        return None

    def value_of_register_at(self, reg: int, pos: int):
        """Architectural value of ``reg`` just before position ``pos``."""
        writes = self.writes
        lo = self.writes_off[reg]
        i = bisect_left(writes, pos, lo, self.writes_off[reg + 1])
        if i == lo:
            return 0
        return self.dst_value[writes[i - 1]]

    def operand_slots(self) -> Tuple[Tuple[Tuple["array", int], ...], ...]:
        """Per static pc, the operand slots that read a non-zero register.

        Each slot is ``(producer column, register)``, in slot order;
        ``producer column[pos]`` is the slot's producer at a position of
        that pc.  Register 0 never has a producer, so its slots are left
        out.
        """
        return tuple(
            tuple(
                (column, reg)
                for column, reg in ((self.dep0, reg0), (self.dep1, reg1))
                if reg
            )
            for reg0, reg1 in zip(self.reg0_of, self.reg1_of)
        )

    def livein_window(self, start: int, end: int):
        """:meth:`livein_pairs` of ``[start, end)``, memoized per window.

        Spawn windows repeat heavily across repeated simulations of one
        trace; a caller that visits each window once calls
        :meth:`livein_pairs` and leaves the memo alone.
        """
        window = self._livein_windows.get((start, end))
        if window is None:
            window = self._livein_windows[(start, end)] = self.livein_pairs(
                start, end
            )
        return window

    def livein_pairs(self, start: int, end: int):
        """Live-in ``(reg, producer)`` pairs of ``[start, end)``.

        A register is live-in when its first in-window read precedes its
        first in-window write (a read at the writing instruction still
        reads the old value); its producer is the last write strictly
        before ``start`` (-1 if never written).  Pairs come in
        first-read source order, ties broken by operand slot within the
        instruction — the discovery order of a linear window scan, which
        live-in prediction replays into order-sensitive predictor state.
        Each register costs two bisects of the read and write indexes.
        """
        reads, reads_off = self.reads, self.reads_off
        writes, writes_off = self.writes, self.writes_off
        pcs = self.pc
        reg0_of = self.reg0_of
        last = end - 1
        found = []
        for reg in self._used_regs:
            hi = reads_off[reg + 1]
            index = bisect_left(reads, start, reads_off[reg], hi)
            if index == hi:
                continue
            first_read = reads[index]
            if first_read > last:
                continue
            wlo = writes_off[reg]
            whi = writes_off[reg + 1]
            windex = bisect_left(writes, start, wlo, whi)
            if windex < whi and first_read > writes[windex]:
                continue
            producer = writes[windex - 1] if windex > wlo else -1
            slot = 0 if reg0_of[pcs[first_read]] == reg else 1
            found.append((first_read, slot, reg, producer))
        found.sort()
        return tuple((item[2], item[3]) for item in found)

    # -- protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in _FIELDS
        )

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    # arrays/lists are unhashable anyway; be explicit.
    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self):
        return tuple(getattr(self, name) for name in _FIELDS)

    def __setstate__(self, state) -> None:
        if len(state) != len(_FIELDS):
            raise ValueError(
                f"trace columns state has {len(state)} fields, "
                f"expected {len(_FIELDS)}"
            )
        for name, value in zip(_FIELDS, state):
            setattr(self, name, value)
        self._derive()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceColumns(length={self.length})"
