"""Dynamic instruction traces.

A :class:`Trace` is the interface between the functional front-end and
everything downstream: the profiler, the spawning-policy analyses and the
clustered SpMT timing simulator are all trace-driven, mirroring the paper's
ATOM-based methodology.

A trace is stored as one list per instruction field plus its
:class:`~repro.exec.columns.TraceColumns`; the executor builds both in
its one loop and the artifact cache stores both.  :class:`DynInst` is a
lazy per-instruction view of the fields, built only on request (by the
legacy simulator core and tests).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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


#: Instruction fields in stored order: a trace keeps one list per field,
#: in this order.
FIELDS = DynInst.__slots__

_FIELD_INDEX = {name: i for i, name in enumerate(FIELDS)}


class Trace:
    """A complete dynamic execution of a program.

    A trace holds one list per instruction field (``FIELDS`` order) plus
    its :class:`~repro.exec.columns.TraceColumns`, from birth: the
    executor (:meth:`repro.exec.machine.Machine.run`) writes both in its
    one loop, and the artifact cache stores and restores both.  The
    :class:`DynInst` objects are a lazy view, built only when ``insts``,
    indexing or iteration first asks for them (the legacy simulator
    core and tests do); everything else reads the fields or columns.

    Derived views the rest of the system relies on:

    - ``positions_of(pc)``: sorted trace positions where ``pc`` executed,
      used by the SpMT simulator to locate the next occurrence of a CQIP.
    - ``register_deps``/``memory_deps``: for each position, the producing
      position of each register source (and of the loaded value), derived
      lazily from the fields for the legacy oracle and the sanitizer.
    """

    def __init__(self, program: Program, fields: List[list], columns):
        if len(fields) != len(FIELDS):
            raise ValueError(
                f"expected {len(FIELDS)} field lists, got {len(fields)}"
            )
        self.program = program
        #: Per-field lists in ``FIELDS`` order (never change once set, so
        #: readers need no lock).
        self._fields = fields
        self._length = len(fields[0])
        self._insts: Optional[List[DynInst]] = None
        self._pc_index: Optional[Dict[int, List[int]]] = None
        self._register_deps: Optional[List[Tuple[int, ...]]] = None
        self._memory_deps: Optional[List[int]] = None
        self._register_writes: Optional[Dict[int, Tuple[List[int], List]]] = None
        self.attach_columns(columns)

    @classmethod
    def from_fields(cls, program: Program, fields: List[list], columns) -> "Trace":
        """The trace over per-field instruction lists and their columns.

        ``fields`` are in ``FIELDS`` order and ``columns`` is their
        :class:`~repro.exec.columns.TraceColumns` view: what the executor
        and the artifact cache both hand over.
        """
        return cls(program, fields, columns)

    @property
    def insts(self) -> List[DynInst]:
        """The instruction objects (built from the fields on first use)."""
        insts = self._insts
        if insts is None:
            insts = self._insts = list(map(DynInst, *self._fields))
        return insts

    def field_lists(self) -> List[list]:
        """Per-field instruction lists in ``FIELDS`` order (not copies)."""
        return self._fields

    def field(self, name: str) -> list:
        """The list of one instruction field (``FIELDS`` name; not a copy)."""
        return self._fields[_FIELD_INDEX[name]]

    def _rows(self, *names: str) -> Iterator[tuple]:
        """Per position, the tuple of the fields ``names`` (no copies)."""
        return zip(*(self.field(name) for name in names))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, pos: int) -> DynInst:
        return self.insts[pos]

    def __iter__(self):
        return iter(self.insts)

    def pc_at(self, pos: int) -> int:
        """The pc executed at trace position ``pos``."""
        return self._fields[0][pos]  # FIELDS[0] is "pc"

    # ------------------------------------------------------------------
    # pc index.
    # ------------------------------------------------------------------

    @property
    def pc_index(self) -> Dict[int, List[int]]:
        if self._pc_index is None:
            index: Dict[int, List[int]] = {}
            for pos, pc in enumerate(self._fields[0]):
                index.setdefault(pc, []).append(pos)
            self._pc_index = index
        return self._pc_index

    def positions_of(self, pc: int) -> Sequence[int]:
        """All trace positions at which ``pc`` executed (sorted)."""
        return self.pc_index.get(pc, ())

    def next_occurrence(self, pc: int, after: int, before: int) -> Optional[int]:
        """First position of ``pc`` in the open interval (after, before).

        Called once per spawn attempt per candidate pair, so it bisects
        the precomputed per-pc position lists rather than scanning the
        trace linearly.
        """
        positions = self.pc_index.get(pc)
        if not positions:
            return None
        i = bisect.bisect_right(positions, after)
        if i < len(positions) and positions[i] < before:
            return positions[i]
        return None

    # ------------------------------------------------------------------
    # Dataflow dependences.
    # ------------------------------------------------------------------

    def _compute_deps(self) -> None:
        last_reg_write: Dict[int, int] = {}
        last_store: Dict[int, int] = {}
        register_deps: List[Tuple[int, ...]] = []
        memory_deps: List[int] = []
        rows = self._rows("op", "dst", "srcs", "addr")
        for pos, (op, dst, srcs, addr) in enumerate(rows):
            register_deps.append(
                tuple(last_reg_write.get(reg, -1) for reg in srcs)
            )
            if op is Opcode.LOAD:
                memory_deps.append(last_store.get(addr, -1))
            else:
                memory_deps.append(-1)
            if dst is not None and dst != 0:
                last_reg_write[dst] = pos
            if op is Opcode.STORE:
                last_store[addr] = pos
        self._register_deps = register_deps
        self._memory_deps = memory_deps

    @property
    def register_deps(self) -> List[Tuple[int, ...]]:
        """Per position: producing position of each register source (-1 if live-in)."""
        if self._register_deps is None:
            self._compute_deps()
        assert self._register_deps is not None
        return self._register_deps

    @property
    def memory_deps(self) -> List[int]:
        """Per position: position of the store feeding this load (-1 if none)."""
        if self._memory_deps is None:
            self._compute_deps()
        assert self._memory_deps is not None
        return self._memory_deps

    # ------------------------------------------------------------------
    # Register state reconstruction (for live-in values).
    # ------------------------------------------------------------------

    def value_of_register_at(self, reg: int, pos: int):
        """Architectural value of ``reg`` just before position ``pos``.

        Backed by the per-register write index, so it is cheap enough for
        the value predictors' spawn-time base values.
        """
        if reg == 0:
            return 0
        positions, values = self.register_writes.get(reg, ((), ()))
        i = bisect.bisect_left(positions, pos)
        if i == 0:
            return 0
        return values[i - 1]

    @property
    def register_writes(self) -> Dict[int, Tuple[List[int], List]]:
        """Per register: (sorted write positions, written values)."""
        if self._register_writes is None:
            writes: Dict[int, Tuple[List[int], List]] = {}
            for pos, (dst, value) in enumerate(self._rows("dst", "dst_value")):
                if dst is not None and dst != 0:
                    entry = writes.setdefault(dst, ([], []))
                    entry[0].append(pos)
                    entry[1].append(value)
            self._register_writes = writes
        return self._register_writes

    # ------------------------------------------------------------------
    # Columnar view (timing-simulator hot path).
    # ------------------------------------------------------------------

    @property
    def columns(self):
        """Struct-of-arrays view of the trace (see
        :class:`repro.exec.columns.TraceColumns`), installed at
        construction.
        """
        return self._columns

    def attach_columns(self, columns) -> None:
        """Install a prebuilt (e.g. cache-restored) columnar view.

        The columns must describe this exact trace; a length mismatch is
        rejected outright, deeper mismatches are the caller's contract.
        """
        if len(columns) != self._length:
            raise ValueError(
                f"columns length {len(columns)} != trace length "
                f"{self._length}"
            )
        self._columns = columns
