"""Columnar (struct-of-arrays) trace representation.

The timing simulator's hot loop touches a handful of per-instruction
facts — opcode class, latency, control/memory flags, dependence edges —
that the object-per-instruction :class:`~repro.exec.trace.DynInst` view
makes it re-derive on every simulated fetch of every thread.
:class:`TraceColumns` precomputes them once per trace into flat columns
indexed by trace position, so the event core's inner loop
(:mod:`repro.cmt.event_core`) is all O(1) integer reads with no
attribute lookups, enum hashing or per-instruction allocation.

The executor builds the columns as it runs (:meth:`Machine.run
<repro.exec.machine.Machine.run>` tracks the dependence columns in its
loop and :meth:`TraceColumns.from_execution` adds the per-opcode ones),
so every trace carries them from birth.  :meth:`TraceColumns.build`
derives the same columns from a finished trace; it is the reference the
executor is tested against.

Columns are deterministic pure functions of the trace, which makes them
safe to persist content-addressed in the artifact cache: the ``"trace"``
artifact stores them next to the instruction fields, and a loaded trace
comes with them attached.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, List, Tuple

from repro.exec.trace import FIELDS
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

_UNCOND_OPS = (Opcode.JUMP, Opcode.CALL, Opcode.RET)


def _static_flags(op: Opcode) -> int:
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


_FIELDS = (
    "pc",
    "flags",
    "fu",
    "lat",
    "addr",
    "mem_dep",
    "dep_pairs",
    "scan_reads",
    "dst_nz",
    "dst_value",
)


class TraceColumns:
    """Struct-of-arrays view of one :class:`~repro.exec.trace.Trace`.

    All columns are indexed by trace position:

    - ``pc``: instruction address (tuple of int).
    - ``flags``: bitmask of ``F_BRANCH``/``F_TAKEN``/``F_UNCOND``/
      ``F_LOAD``/``F_STORE``.
    - ``fu``: functional-unit class ordinal (see
      :data:`repro.isa.instructions.FU_CLASSES`).
    - ``lat``: execution latency (loads still add the cache access on top,
      exactly as ``latency_of``).
    - ``addr``: word address touched by a load/store, -1 otherwise
      (``array('q')``).
    - ``mem_dep``: position of the store feeding this load, -1 if none or
      not a load (``array('q')``; mirrors ``Trace.memory_deps``).
    - ``dep_pairs``: tuple of ``(producer, reg)`` register dependences in
      source order, restricted to recorded producers (``producer >= 0``) —
      the only entries the timing loop acts on.
    - ``scan_reads``: tuple of ``(reg, producer)`` source reads in source
      order with ``reg != 0``, producer possibly -1 — the live-in scan's
      view (it must also see unproduced reads).
    - ``dst_nz``: destination register if written and non-zero, else -1.
    - ``dst_value``: value written by the instruction (None when no
      destination) — read only at producer positions.
    """

    __slots__ = _FIELDS + (
        "length",
        "_livein_index",
        "_livein_windows",
        "_prime_cache",
    )

    def __init__(
        self,
        pc: Tuple[int, ...],
        flags: Tuple[int, ...],
        fu: Tuple[int, ...],
        lat: Tuple[int, ...],
        addr: "array",
        mem_dep: "array",
        dep_pairs: Tuple[Tuple[Tuple[int, int], ...], ...],
        scan_reads: Tuple[Tuple[Tuple[int, int], ...], ...],
        dst_nz: Tuple[int, ...],
        dst_value: List,
    ):
        self.pc = pc
        self.flags = flags
        self.fu = fu
        self.lat = lat
        self.addr = addr
        self.mem_dep = mem_dep
        self.dep_pairs = dep_pairs
        self.scan_reads = scan_reads
        self.dst_nz = dst_nz
        self.dst_value = dst_value
        self.length = len(pc)
        self._livein_index = None
        self._livein_windows: dict = {}
        #: (prime params, pair signature) -> value-predictor training
        #: sequence (see ``repro.cmt.processor.priming_sequence``).
        self._prime_cache: dict = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_execution(
        cls,
        program: "Program",
        fields: List[list],
        mem_dep: List[int],
        dep_pairs: List[Tuple[Tuple[int, int], ...]],
        scan_reads: List[Tuple[Tuple[int, int], ...]],
    ) -> "TraceColumns":
        """Assemble the columns of an executed trace.

        ``fields`` are the trace's per-field lists (``FIELDS`` order);
        ``mem_dep``, ``dep_pairs`` and ``scan_reads`` are the dependence
        columns the executor tracked while it ran.  FU class, latency and
        the static flag bits are constants of the opcode, so they are
        looked up once per static pc; only ``F_TAKEN`` varies between
        instances of one instruction.  Every column is a new object: none
        shares a list with ``fields``.
        """
        named = dict(zip(FIELDS, fields))
        pcs = named["pc"]
        ops = [inst.op for inst in program]
        fu_of = [FU_INDEX[fu_class(op)] for op in ops]
        lat_of = [latency_of(op) for op in ops]
        bits_of = [_static_flags(op) for op in ops]
        return cls(
            pc=tuple(pcs),
            flags=tuple(
                [
                    bits_of[pc] | F_TAKEN if taken else bits_of[pc]
                    for pc, taken in zip(pcs, named["taken"])
                ]
            ),
            fu=tuple(map(fu_of.__getitem__, pcs)),
            lat=tuple(map(lat_of.__getitem__, pcs)),
            addr=array("q", [-1 if a is None else a for a in named["addr"]]),
            mem_dep=array("q", mem_dep),
            dep_pairs=tuple(dep_pairs),
            scan_reads=tuple(scan_reads),
            dst_nz=tuple([dst if dst else -1 for dst in named["dst"]]),
            dst_value=list(named["dst_value"]),
        )

    @classmethod
    def build(cls, trace: "Trace") -> "TraceColumns":
        """Derive the columns from a finished ``trace`` (one linear pass).

        The reference derivation: it reads the trace's field lists and
        its lazily computed ``register_deps``/``memory_deps`` and derives
        every fact per instruction, independently of the executor.
        """
        named = dict(zip(FIELDS, trace.field_lists()))
        reg_deps = trace.register_deps
        mem_deps = trace.memory_deps
        n = len(trace)
        flags: List[int] = [0] * n
        fu: List[int] = [0] * n
        lat: List[int] = [0] * n
        addr = array("q", bytes(8 * n)) if n else array("q")
        dep_pairs: List[Tuple[Tuple[int, int], ...]] = [()] * n
        scan_reads: List[Tuple[Tuple[int, int], ...]] = [()] * n
        dst_nz: List[int] = [-1] * n
        rows = zip(
            named["op"], named["dst"], named["srcs"], named["addr"], named["taken"]
        )
        for pos, (op, dst, srcs, address, taken) in enumerate(rows):
            bits = 0
            if taken is not None:
                bits = F_BRANCH | (F_TAKEN if taken else 0)
            elif op in _UNCOND_OPS:
                bits = F_UNCOND
            if op is Opcode.LOAD:
                bits |= F_LOAD
            elif op is Opcode.STORE:
                bits |= F_STORE
            flags[pos] = bits
            fu[pos] = FU_INDEX[fu_class(op)]
            lat[pos] = latency_of(op)
            addr[pos] = address if address is not None else -1
            deps = reg_deps[pos]
            if deps:
                dep_pairs[pos] = tuple(
                    (producer, srcs[i])
                    for i, producer in enumerate(deps)
                    if producer >= 0
                )
                scan_reads[pos] = tuple(
                    (reg, deps[i])
                    for i, reg in enumerate(srcs)
                    if reg != 0
                )
            if dst is not None and dst != 0:
                dst_nz[pos] = dst
        return cls(
            pc=tuple(named["pc"]),
            flags=tuple(flags),
            fu=tuple(fu),
            lat=tuple(lat),
            addr=addr,
            mem_dep=array("q", mem_deps),
            dep_pairs=tuple(dep_pairs),
            scan_reads=tuple(scan_reads),
            dst_nz=tuple(dst_nz),
            dst_value=list(named["dst_value"]),
        )

    # -- derived indexes ------------------------------------------------

    def livein_index(self):
        """Per-register position index behind :meth:`livein_pairs`.

        Returns ``(reads_of, writes_of, used_regs)``: for each register,
        the ascending trace positions where it is read (per
        ``scan_reads``) and written (per ``dst_nz``), plus the ascending
        list of registers with at least one recorded read.  With it, the
        live-in set of a window ``[start, end)`` reduces to two bisects
        per register — whether the first in-window read of ``r`` precedes
        its first in-window write — instead of a scan over the window.
        Built lazily on first use and memoized; derived data, so it is
        not persisted with the columns (``__getstate__`` skips it).
        """
        index = self._livein_index
        if index is None:
            reads_of: List["array"] = [array("q") for _ in range(64)]
            writes_of: List["array"] = [array("q") for _ in range(64)]
            for pos, reads in enumerate(self.scan_reads):
                for reg, _producer in reads:
                    reads_of[reg].append(pos)
            for pos, dst in enumerate(self.dst_nz):
                if dst >= 0:
                    writes_of[dst].append(pos)
            used_regs = tuple(
                reg for reg in range(64) if len(reads_of[reg])
            )
            index = self._livein_index = (reads_of, writes_of, used_regs)
        return index

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
        first-read source order, ties broken by operand rank within the
        instruction — the discovery order of a linear window scan, which
        live-in prediction replays into order-sensitive predictor state.
        """
        reads_of, writes_of, used_regs = self.livein_index()
        scan_reads = self.scan_reads
        last = end - 1
        found = []
        for reg in used_regs:
            positions = reads_of[reg]
            index = bisect_left(positions, start)
            if index == len(positions):
                continue
            first_read = positions[index]
            if first_read > last:
                continue
            writes = writes_of[reg]
            windex = bisect_left(writes, start)
            if windex < len(writes) and first_read > writes[windex]:
                continue
            producer = writes[windex - 1] if windex else -1
            rank = 0
            for i, read in enumerate(scan_reads[first_read]):
                if read[0] == reg:
                    rank = i
                    break
            found.append((first_read, rank, reg, producer))
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
        for name, value in zip(_FIELDS, state):
            setattr(self, name, value)
        self.length = len(self.pc)
        self._livein_index = None
        self._livein_windows = {}
        self._prime_cache = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceColumns(length={self.length})"
