"""Static memory-dependence and squash-risk analysis for (SP, CQIP) pairs.

The paper's cost model charges a spawned speculative thread for every
mis-predicted live-in and every inter-thread memory dependence violated at
runtime.  This module predicts both *statically*: an interval-based
may-alias analysis over base+offset address expressions finds the store/load
pairs that can violate a RAW dependence across the spawn (the thread reads
what the skipped-over region writes), and an induction-variable analysis
classifies each live-in register by how predictable its value is at the
spawning point.  Both feed a per-pair :class:`SquashRiskReport`:

- the *may-RAW set* over-approximates every cross-thread memory dependence
  any execution can exhibit, which makes it the soundness oracle for the
  replay sanitizer (``repro.analysis.sanitizer``) — a dynamic dependence
  outside the static may-set is a bug in one of the two analyses;
- the *live-in classes* form a small lattice (induction < affine < other <
  memory-carried) that maps onto the value-predictor menu: induction/affine
  values suit a stride predictor, memory-carried values defeat value
  prediction entirely and favour synchronisation.

The value domain is the classic integer-interval lattice, widened against
the natural-loop structure from :mod:`repro.analysis.dominators`: a register
updated only by recognised self-update shapes inside a loop (``r += c`` and
friends) is bounded by its entry value, the loop-guard limit and the
per-iteration growth, instead of iterating the transfer functions to a
fixpoint.  Results feed ``repro analyze-deps``, the replay sanitizer and
the dependence-aware ``repro lint`` rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import EdgeKind, StaticCFG
from repro.analysis.dataflow import (
    LivenessResult,
    ReachingDefsResult,
    inst_def,
    solve_liveness,
    solve_reaching,
)
from repro.analysis.dominators import NaturalLoop, dominator_tree, natural_loops
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.spawning.pairs import SpawnPairSet

_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1
_MASK = 0xFFFFFFFF
_INF = float("inf")

#: Resolution depth cap: beyond this many nested definition lookups the
#: analysis widens to TOP/OTHER.  Keeps recursion bounded on long
#: definition chains; giving up early only loses precision, never soundness.
_DEPTH_LIMIT = 64


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; endpoints may be infinite.

    The abstract value of the address/value analysis: every concrete value
    the analysed expression can produce lies inside the interval.  ``lo``
    is finite or ``-inf`` and ``hi`` finite or ``+inf``, which keeps the
    arithmetic below free of ``inf - inf`` indeterminates.
    """

    lo: float
    hi: float

    @property
    def is_top(self) -> bool:
        """True for the unbounded interval (no information)."""
        return self.lo == -_INF and self.hi == _INF

    @property
    def is_bounded(self) -> bool:
        """True when both endpoints are finite."""
        return self.lo > -_INF and self.hi < _INF

    def hull(self, other: "Interval") -> "Interval":
        """Return the smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def shift(self, offset: int) -> "Interval":
        """Return the interval translated by a constant ``offset``."""
        return Interval(self.lo + offset, self.hi + offset)

    def overlaps(self, other: "Interval") -> bool:
        """Return True when the two intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def contains(self, value: float) -> bool:
        """Return True when ``value`` lies inside the interval."""
        return self.lo <= value <= self.hi


#: The no-information interval.
TOP = Interval(-_INF, _INF)


def _clamp32(iv: Interval) -> Interval:
    """Widen to TOP when a 32-bit two's-complement wrap is possible.

    The machine wraps every integer register write; an interval that never
    leaves the representable range is exact, anything else may alias an
    arbitrary wrapped value.
    """
    if iv.lo < _INT_MIN or iv.hi > _INT_MAX:
        return TOP
    return iv


def _add(a: Interval, b: Interval) -> Interval:
    """Interval sum (before wrap clamping)."""
    return Interval(a.lo + b.lo, a.hi + b.hi)


def _sub(a: Interval, b: Interval) -> Interval:
    """Interval difference (before wrap clamping)."""
    return Interval(a.lo - b.hi, a.hi - b.lo)


def _neg(a: Interval) -> Interval:
    """Interval negation."""
    return Interval(-a.hi, -a.lo)


def _mul(a: Interval, b: Interval) -> Interval:
    """Interval product; TOP unless both operands are fully bounded.

    Restricting to bounded operands avoids the ``inf * 0`` indeterminate
    and is all the address analysis needs (scaled induction variables).
    """
    if not (a.is_bounded and b.is_bounded):
        return TOP
    corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(corners), max(corners))


class LiveInClass(enum.IntEnum):
    """Predictability class of a speculative-thread live-in register.

    Ordered from most to least value-predictable; the pair-level class is
    the maximum over the live-in's reaching definitions, so one
    memory-carried producer taints the whole register.
    """

    INDUCTION = 0
    AFFINE = 1
    OTHER = 2
    MEMORY_CARRIED = 3

    def label(self) -> str:
        """Return the lower-case name used in reports and JSON."""
        return self.name.lower()


#: Lint/risk weight of each live-in class (roughly: expected mispredictions
#: per spawn under the best matching predictor).
_CLASS_WEIGHT: Dict[LiveInClass, float] = {
    LiveInClass.INDUCTION: 0.25,
    LiveInClass.AFFINE: 0.5,
    LiveInClass.OTHER: 1.0,
    LiveInClass.MEMORY_CARRIED: 2.0,
}

#: Opcodes whose result is an arithmetic combination of the sources —
#: affine-preserving for classification purposes.
_ARITH_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.ADDI,
        Opcode.SUB,
        Opcode.MOV,
        Opcode.SHLI,
        Opcode.MUL,
        Opcode.SHL,
    }
)


def region_pc_ranges(
    cfg: StaticCFG, sp_pc: int, cqip_pc: int
) -> List[Tuple[int, int]]:
    """Half-open pc ranges executable on some SP→CQIP path (CQIP exclusive).

    The region is every block B with SP →* B →* CQIP.  Within the CQIP
    block only instructions before the CQIP count (a path entering the
    block stops at the first CQIP occurrence); within the SP block,
    instructions before the SP count too when the block can be re-entered
    from inside the region (a looping path may revisit them before
    reaching the CQIP).

    Args:
        cfg: Static CFG of the program.
        sp_pc: Spawning-point pc.
        cqip_pc: Control quasi-independent point pc.

    Returns:
        Sorted list of ``(start_pc, end_pc)`` half-open ranges.
    """
    sp_block = cfg.block_containing(sp_pc)
    cq_block = cfg.block_containing(cqip_pc)
    from_sp = cfg.reachable_from(sp_block.bid)
    from_sp.add(sp_block.bid)
    to_cq: Set[int] = {cq_block.bid}
    stack = [cq_block.bid]
    while stack:
        cur = stack.pop()
        for pred in cfg.predecessors(cur):
            if pred not in to_cq:
                to_cq.add(pred)
                stack.append(pred)
    region = from_sp & to_cq

    ranges: List[Tuple[int, int]] = []
    for bid in sorted(region):
        block = cfg.blocks[bid]
        reentrant = any(p in region for p in cfg.predecessors(bid))
        if bid == sp_block.bid and bid == cq_block.bid:
            if cqip_pc > sp_pc:
                if reentrant:
                    ranges.append((block.start_pc, cqip_pc))
                else:
                    ranges.append((sp_pc, cqip_pc))
            else:
                # The path wraps around a cycle through this block.
                ranges.append((block.start_pc, cqip_pc))
                ranges.append((sp_pc, block.end_pc))
        elif bid == sp_block.bid:
            if reentrant:
                ranges.append((block.start_pc, block.end_pc))
            else:
                ranges.append((sp_pc, block.end_pc))
        elif bid == cq_block.bid:
            ranges.append((block.start_pc, cqip_pc))
        else:
            ranges.append((block.start_pc, block.end_pc))
    return ranges


def continuation_pc_ranges(cfg: StaticCFG, cqip_pc: int) -> List[Tuple[int, int]]:
    """Half-open pc ranges the speculative thread can execute from the CQIP.

    Everything from the CQIP to the end of its block, plus every block
    statically reachable from there; when the CQIP block lies on a cycle
    the whole block is included (it can re-execute).

    Args:
        cfg: Static CFG of the program.
        cqip_pc: The speculative thread's start pc.

    Returns:
        Sorted list of ``(start_pc, end_pc)`` half-open ranges.
    """
    cq_block = cfg.block_containing(cqip_pc)
    reach = cfg.reachable_from(cq_block.bid)
    ranges: List[Tuple[int, int]] = []
    if cq_block.bid not in reach:
        ranges.append((cqip_pc, cq_block.end_pc))
    for bid in sorted(reach):
        block = cfg.blocks[bid]
        ranges.append((block.start_pc, block.end_pc))
    return sorted(ranges)


def _pcs_in(ranges: Sequence[Tuple[int, int]]) -> Iterator[int]:
    """Iterate every pc covered by a list of half-open ranges."""
    for start, end in ranges:
        yield from range(start, end)


@dataclass(frozen=True)
class SquashRiskReport:
    """Static squash-risk summary for one (SP, CQIP) pair.

    ``may_raw`` is the sound over-approximation: every cross-thread RAW
    memory dependence any execution of this pair can exhibit appears here
    as a ``(store_pc, load_pc)`` tuple.  ``likely_raw`` is the subset whose
    address intervals are both bounded — precise enough that an overlap is
    a strong signal rather than mere ignorance.  ``live_in_classes`` maps
    each live-in register the skipped region may clobber to its
    :class:`LiveInClass`; ``recommended_predictor`` and ``risk_score``
    condense the report for ranking and linting.
    """

    sp_pc: int
    cqip_pc: int
    store_pcs: Tuple[int, ...]
    load_pcs: Tuple[int, ...]
    may_raw: FrozenSet[Tuple[int, int]]
    likely_raw: FrozenSet[Tuple[int, int]]
    live_in_classes: Tuple[Tuple[int, LiveInClass], ...]
    recommended_predictor: str
    risk_score: float

    def memory_carried_live_ins(self) -> List[int]:
        """Return the live-in registers classified as memory-carried."""
        return [
            reg
            for reg, cls in self.live_in_classes
            if cls is LiveInClass.MEMORY_CARRIED
        ]

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable view of the report."""
        return {
            "sp_pc": self.sp_pc,
            "cqip_pc": self.cqip_pc,
            "store_pcs": list(self.store_pcs),
            "load_pcs": list(self.load_pcs),
            "may_raw": sorted(list(p) for p in self.may_raw),
            "likely_raw": sorted(list(p) for p in self.likely_raw),
            "live_in_classes": {
                f"r{reg}": cls.label() for reg, cls in self.live_in_classes
            },
            "recommended_predictor": self.recommended_predictor,
            "risk_score": round(self.risk_score, 4),
        }

    def format(self) -> str:
        """Return a one-line human-readable summary."""
        classes = ", ".join(
            f"r{reg}:{cls.label()}" for reg, cls in self.live_in_classes
        )
        return (
            f"SP {self.sp_pc} -> CQIP {self.cqip_pc}  "
            f"risk={self.risk_score:.2f} vp={self.recommended_predictor} "
            f"may_raw={len(self.may_raw)} likely_raw={len(self.likely_raw)} "
            f"live_ins=[{classes or '-'}]"
        )


class DependenceAnalysis:
    """Whole-program value/taint analysis with per-pair risk reports.

    One instance amortises the CFG, dataflow and loop analyses across
    every pair queried; :meth:`analyze_pair` results are memoised.

    Args:
        program: The program to analyse.
        cfg: Optional pre-built static CFG (built on demand otherwise).
    """

    def __init__(self, program: Program, cfg: Optional[StaticCFG] = None):
        self.program = program
        self.cfg = cfg or StaticCFG(program)
        self.reaching: ReachingDefsResult = solve_reaching(self.cfg)
        self.liveness: LivenessResult = solve_liveness(self.cfg)
        self.loops: List[NaturalLoop] = natural_loops(
            self.cfg, dominator_tree(self.cfg)
        )
        self._interval_memo: Dict[int, Interval] = {}
        self._interval_stack: Set[int] = set()
        self._taint_memo: Dict[int, LiveInClass] = {}
        self._taint_stack: Set[int] = set()
        self._induction_memo: Dict[Tuple[int, int], Optional[Interval]] = {}
        self._induction_stack: Set[Tuple[int, int]] = set()
        self._cyclic_memo: Dict[int, Set[int]] = {}
        self._loop_of: Dict[int, Optional[NaturalLoop]] = {}
        self._pair_memo: Dict[Tuple[int, int], SquashRiskReport] = {}
        self._depth = 0

    # ------------------------------------------------------------------
    # Value intervals.
    # ------------------------------------------------------------------

    def use_interval(self, pc: int, reg: int) -> Interval:
        """Abstract value of ``reg`` just before executing ``pc``.

        The hull over every reaching definition of the register; registers
        with no reaching definition are the machine's zero-initialised
        value.

        Args:
            pc: Program counter of the reading instruction.
            reg: Register number read.

        Returns:
            A sound :class:`Interval` for the register's value.
        """
        if reg == 0:
            return Interval(0.0, 0.0)
        defs = sorted(
            d
            for d in self.reaching.defs_reaching(pc)
            if inst_def(self.program[d]) == reg
        )
        if not defs:
            return Interval(0.0, 0.0)
        result = self._def_interval(defs[0])
        for d in defs[1:]:
            result = result.hull(self._def_interval(d))
        return result

    def _def_interval(self, d: int) -> Interval:
        """Memoised abstract value produced by the definition at pc ``d``."""
        cached = self._interval_memo.get(d)
        if cached is not None:
            return cached
        if d in self._interval_stack or self._depth >= _DEPTH_LIMIT:
            return TOP
        self._interval_stack.add(d)
        self._depth += 1
        try:
            result = self._compute_def_interval(d)
        finally:
            self._depth -= 1
            self._interval_stack.discard(d)
        self._interval_memo[d] = result
        return result

    def _compute_def_interval(self, d: int) -> Interval:
        """Uncached transfer of one definition (induction-aware)."""
        inst = self.program[d]
        reg = inst_def(inst)
        if reg is not None and self._self_update_step(d, reg) is not None:
            loop = self._innermost_loop(self.cfg.block_containing(d).bid)
            if loop is not None:
                widened = self._induction_interval(loop, reg)
                if widened is not None:
                    return widened
        return self._transfer(d, inst)

    def _transfer(self, d: int, inst: Instruction) -> Interval:
        """Plain (loop-oblivious) transfer function of one instruction."""
        op = inst.op
        imm = inst.imm if inst.imm is not None else 0

        def u(i: int) -> Interval:
            return self.use_interval(d, inst.srcs[i])

        if op is Opcode.LI:
            return _clamp32(Interval(float(imm), float(imm)))
        if op is Opcode.MOV:
            return u(0)
        if op is Opcode.ADD:
            return _clamp32(_add(u(0), u(1)))
        if op is Opcode.ADDI:
            return _clamp32(u(0).shift(imm))
        if op is Opcode.SUB:
            return _clamp32(_sub(u(0), u(1)))
        if op is Opcode.MUL:
            return _clamp32(_mul(u(0), u(1)))
        if op in (Opcode.SLT, Opcode.SLTI):
            return Interval(0.0, 1.0)
        if op is Opcode.ANDI:
            operand = u(0)
            if imm >= 0:
                hi = float(imm)
                if operand.lo >= 0 and operand.hi < hi:
                    hi = operand.hi
                return Interval(0.0, hi)
            if operand.lo >= 0 and operand.hi < _INF:
                return Interval(0.0, operand.hi)
            return TOP
        if op is Opcode.AND:
            bounds = [
                iv.hi for iv in (u(0), u(1)) if iv.lo >= 0 and iv.hi < _INF
            ]
            if bounds:
                return Interval(0.0, min(bounds))
            return TOP
        if op in (Opcode.ORI, Opcode.XORI):
            operand = u(0)
            if imm >= 0 and operand.lo >= 0 and operand.hi < _INF:
                bits = max(int(operand.hi).bit_length(), imm.bit_length())
                return Interval(0.0, float((1 << bits) - 1))
            return TOP
        if op in (Opcode.OR, Opcode.XOR):
            a, b = u(0), u(1)
            if a.lo >= 0 and b.lo >= 0 and a.is_bounded and b.is_bounded:
                bits = max(
                    int(a.hi).bit_length(), int(b.hi).bit_length()
                )
                return Interval(0.0, float((1 << bits) - 1))
            return TOP
        if op is Opcode.SHRI:
            sh = imm & 31
            operand = u(0)
            if sh == 0:
                # (x & MASK) >> 0 wraps back to x.
                return operand
            if operand.lo >= 0 and operand.hi <= _INT_MAX:
                return Interval(
                    float(int(operand.lo) >> sh), float(int(operand.hi) >> sh)
                )
            return Interval(0.0, float(_MASK >> sh))
        if op is Opcode.SHR:
            operand = u(0)
            if operand.lo >= 0 and operand.hi <= _INT_MAX:
                return Interval(0.0, operand.hi)
            return TOP
        if op is Opcode.SHLI:
            operand = u(0)
            factor = 1 << (imm & 31)
            if operand.is_bounded:
                return _clamp32(
                    Interval(operand.lo * factor, operand.hi * factor)
                )
            return TOP
        if op is Opcode.REM:
            divisor = u(1)
            if divisor.is_bounded:
                magnitude = max(abs(int(divisor.lo)), abs(int(divisor.hi)))
                if magnitude == 0:
                    return Interval(0.0, 0.0)
                dividend = u(0)
                lo = 0.0 if dividend.lo >= 0 else float(-(magnitude - 1))
                hi = 0.0 if dividend.hi <= 0 else float(magnitude - 1)
                return Interval(lo, hi)
            return TOP
        # LOAD, DIV, SHL-by-register overflow, floating point, …
        return TOP

    # ------------------------------------------------------------------
    # Induction-variable widening.
    # ------------------------------------------------------------------

    def _innermost_loop(self, bid: int) -> Optional[NaturalLoop]:
        """Smallest natural loop whose body contains block ``bid``."""
        if bid not in self._loop_of:
            best: Optional[NaturalLoop] = None
            for loop in self.loops:
                if bid in loop.body and (
                    best is None or len(loop.body) < len(best.body)
                ):
                    best = loop
            self._loop_of[bid] = best
        return self._loop_of[bid]

    def _self_update_step(self, d: int, reg: int) -> Optional[Interval]:
        """Per-execution increment when ``d`` is a self-update of ``reg``.

        Recognised shapes: ``addi r, r, c`` / ``add r, r, s`` /
        ``sub r, r, s`` / ``mov r, r``.  Returns None for anything else.
        """
        inst = self.program[d]
        op = inst.op
        srcs = inst.srcs
        if op is Opcode.ADDI and srcs == (reg,):
            imm = inst.imm if inst.imm is not None else 0
            return Interval(float(imm), float(imm))
        if op is Opcode.MOV and srcs == (reg,):
            return Interval(0.0, 0.0)
        if (
            op is Opcode.ADD
            and len(srcs) == 2
            and (srcs[0] == reg) != (srcs[1] == reg)
        ):
            other = srcs[1] if srcs[0] == reg else srcs[0]
            return self.use_interval(d, other)
        if (
            op is Opcode.SUB
            and len(srcs) == 2
            and srcs[0] == reg
            and srcs[1] != reg
        ):
            return _neg(self.use_interval(d, srcs[1]))
        return None

    def _induction_interval(
        self, loop: NaturalLoop, reg: int
    ) -> Optional[Interval]:
        """Widened interval of an induction register over a natural loop.

        None when the register is not a pure induction of the loop (some
        in-body definition is not a recognised self-update).
        """
        key = (loop.head, reg)
        if key in self._induction_memo:
            return self._induction_memo[key]
        if key in self._induction_stack:
            return None
        self._induction_stack.add(key)
        try:
            result = self._compute_induction(loop, reg)
        finally:
            self._induction_stack.discard(key)
        self._induction_memo[key] = result
        return result

    def _compute_induction(
        self, loop: NaturalLoop, reg: int
    ) -> Optional[Interval]:
        """Uncached induction widening (see :meth:`_induction_interval`)."""
        program = self.program
        cfg = self.cfg
        body_defs: List[int] = []
        for bid in sorted(loop.body):
            block = cfg.blocks[bid]
            for pc in range(block.start_pc, block.end_pc):
                if inst_def(program[pc]) == reg:
                    body_defs.append(pc)
        if not body_defs:
            return None
        steps: List[Interval] = []
        for pc in body_defs:
            step = self._self_update_step(pc, reg)
            if step is None:
                return None
            steps.append(step)
        pos_growth = sum(max(s.hi, 0.0) for s in steps)
        neg_growth = sum(min(s.lo, 0.0) for s in steps)

        # Entry value: definitions reaching the head from outside the body,
        # hulled with 0 for paths on which the register is never written.
        head_pc = cfg.blocks[loop.head].start_pc
        init = Interval(0.0, 0.0)
        for d in sorted(self.reaching.defs_reaching(head_pc)):
            if inst_def(program[d]) != reg:
                continue
            if cfg.block_containing(d).bid in loop.body:
                continue
            init = init.hull(self._def_interval(d))

        lo: float = -_INF
        hi: float = _INF
        if pos_growth == 0:
            hi = init.hi  # monotone non-increasing
        if neg_growth == 0:
            lo = init.lo  # monotone non-decreasing
        if pos_growth > 0:
            upper = self._head_bound(loop, reg, upper=True)
            if upper is not None and self._defs_execute_once(loop, body_defs):
                hi = upper + pos_growth
        if neg_growth < 0:
            lower = self._head_bound(loop, reg, upper=False)
            if lower is not None and self._defs_execute_once(loop, body_defs):
                lo = lower + neg_growth
        if lo == -_INF and hi == _INF:
            return TOP
        return _clamp32(Interval(lo, hi))

    def _head_bound(
        self, loop: NaturalLoop, reg: int, upper: bool
    ) -> Optional[float]:
        """Bound on ``reg`` guaranteed on *every* edge into the loop head.

        Entry edges and back edges are checked uniformly: each must be a
        branch shape implying ``reg < s`` / ``reg <= s`` (upper) or
        ``reg >= s`` / ``reg > s`` (lower).  Returns the loosest such bound,
        or None when any head-entering edge carries no recognised guard.
        """
        cfg = self.cfg
        head_pc = cfg.blocks[loop.head].start_pc
        best: Optional[float] = None
        preds = cfg.preds[loop.head]
        if not preds:
            return None
        for src, kind in preds:
            term_pc = cfg.blocks[src].last_pc
            term = self.program[term_pc]
            srcs = term.srcs
            if len(srcs) != 2 or term.op not in (Opcode.BLT, Opcode.BGE):
                return None
            taken = kind is EdgeKind.TAKEN
            if taken and term.target != head_pc:
                return None
            if not taken and kind is not EdgeKind.FALLTHROUGH:
                return None
            # Condition known true on this edge: the branch condition when
            # taken, its negation when falling through.
            # BLT a, b  taken => a < b   fallthrough => a >= b
            # BGE a, b  taken => a >= b  fallthrough => a < b
            a, b = srcs
            lt = (term.op is Opcode.BLT) == taken  # a < b holds, else a >= b
            bound: Optional[float] = None
            if upper:
                if lt and a == reg and b != reg:
                    bound = self.use_interval(term_pc, b).hi - 1
                elif not lt and b == reg and a != reg:
                    bound = self.use_interval(term_pc, a).hi
            else:
                if not lt and a == reg and b != reg:
                    bound = self.use_interval(term_pc, b).lo
                elif lt and b == reg and a != reg:
                    bound = self.use_interval(term_pc, a).lo + 1
            if bound is None:
                return None
            if best is None:
                best = bound
            else:
                best = max(best, bound) if upper else min(best, bound)
        return best

    def _defs_execute_once(
        self, loop: NaturalLoop, body_defs: Sequence[int]
    ) -> bool:
        """True when no body definition can run twice per head visit.

        A definition inside a nested inner loop executes an unbounded
        number of times between head visits, which would invalidate the
        entry-plus-one-step bound.
        """
        cyclic = self._cyclic_blocks(loop)
        return all(
            self.cfg.block_containing(pc).bid not in cyclic
            for pc in body_defs
        )

    def _cyclic_blocks(self, loop: NaturalLoop) -> Set[int]:
        """Body blocks (head excluded) lying on a cycle avoiding the head."""
        cached = self._cyclic_memo.get(loop.head)
        if cached is not None:
            return cached
        cfg = self.cfg
        inner = set(loop.body) - {loop.head}
        cyclic: Set[int] = set()
        for bid in inner:
            seen: Set[int] = set()
            stack = [dst for dst in cfg.successors(bid) if dst in inner]
            while stack:
                cur = stack.pop()
                if cur == bid:
                    cyclic.add(bid)
                    break
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(
                    dst for dst in cfg.successors(cur) if dst in inner
                )
        self._cyclic_memo[loop.head] = cyclic
        return cyclic

    # ------------------------------------------------------------------
    # Live-in classification.
    # ------------------------------------------------------------------

    def use_taint(self, pc: int, reg: int) -> LiveInClass:
        """Predictability class of ``reg``'s value just before ``pc``.

        Args:
            pc: Program counter of the reading instruction.
            reg: Register number read.

        Returns:
            The worst (largest) :class:`LiveInClass` over the register's
            reaching definitions.
        """
        if reg == 0:
            return LiveInClass.AFFINE
        defs = [
            d
            for d in self.reaching.defs_reaching(pc)
            if inst_def(self.program[d]) == reg
        ]
        if not defs:
            return LiveInClass.AFFINE
        return max(self._def_taint(d) for d in sorted(defs))

    def _def_taint(self, d: int) -> LiveInClass:
        """Memoised predictability class of the definition at pc ``d``."""
        cached = self._taint_memo.get(d)
        if cached is not None:
            return cached
        if d in self._taint_stack or self._depth >= _DEPTH_LIMIT:
            return LiveInClass.OTHER
        self._taint_stack.add(d)
        self._depth += 1
        try:
            result = self._compute_def_taint(d)
        finally:
            self._depth -= 1
            self._taint_stack.discard(d)
        self._taint_memo[d] = result
        return result

    def _compute_def_taint(self, d: int) -> LiveInClass:
        """Uncached predictability class of one definition."""
        inst = self.program[d]
        op = inst.op
        if op is Opcode.LOAD:
            return LiveInClass.MEMORY_CARRIED
        reg = inst_def(inst)
        if reg is not None and self._self_update_step(d, reg) is not None:
            return LiveInClass.INDUCTION
        if op is Opcode.LI:
            return LiveInClass.AFFINE
        src_taints = [self.use_taint(d, r) for r in inst.srcs if r != 0]
        worst = max(src_taints) if src_taints else LiveInClass.AFFINE
        if op in _ARITH_OPS:
            return LiveInClass.AFFINE if worst <= LiveInClass.AFFINE else worst
        if worst is LiveInClass.MEMORY_CARRIED:
            return LiveInClass.MEMORY_CARRIED
        return LiveInClass.OTHER

    def _live_in_classes(
        self, cqip_pc: int, region: Sequence[Tuple[int, int]]
    ) -> Tuple[Tuple[int, LiveInClass], ...]:
        """Classify the thread live-ins the SP→CQIP region may clobber."""
        live = self.liveness.live_before(cqip_pc)
        region_defs: Dict[int, List[int]] = {}
        for pc in _pcs_in(region):
            reg = inst_def(self.program[pc])
            if reg is not None and reg in live:
                region_defs.setdefault(reg, []).append(pc)
        return tuple(
            (reg, max(self._def_taint(d) for d in region_defs[reg]))
            for reg in sorted(region_defs)
        )

    # ------------------------------------------------------------------
    # Pair reports.
    # ------------------------------------------------------------------

    def analyze_pair(self, sp_pc: int, cqip_pc: int) -> SquashRiskReport:
        """Build (or fetch the memoised) report for one (SP, CQIP) pair.

        Args:
            sp_pc: Spawning-point pc.
            cqip_pc: Control quasi-independent point pc.

        Returns:
            The pair's :class:`SquashRiskReport`.

        Raises:
            ValueError: When either pc lies outside the program text.
        """
        key = (sp_pc, cqip_pc)
        cached = self._pair_memo.get(key)
        if cached is not None:
            return cached
        region = region_pc_ranges(self.cfg, sp_pc, cqip_pc)
        continuation = continuation_pc_ranges(self.cfg, cqip_pc)
        program = self.program

        stores: List[Tuple[int, Interval]] = []
        for pc in _pcs_in(region):
            inst = program[pc]
            if inst.op is Opcode.STORE:
                offset = inst.imm if inst.imm is not None else 0
                stores.append(
                    (pc, self.use_interval(pc, inst.srcs[1]).shift(offset))
                )
        loads: List[Tuple[int, Interval]] = []
        for pc in _pcs_in(continuation):
            inst = program[pc]
            if inst.op is Opcode.LOAD:
                offset = inst.imm if inst.imm is not None else 0
                loads.append(
                    (pc, self.use_interval(pc, inst.srcs[0]).shift(offset))
                )

        may: Set[Tuple[int, int]] = set()
        likely: Set[Tuple[int, int]] = set()
        for store_pc, store_addr in stores:
            for load_pc, load_addr in loads:
                if store_addr.overlaps(load_addr):
                    may.add((store_pc, load_pc))
                    if store_addr.is_bounded and load_addr.is_bounded:
                        likely.add((store_pc, load_pc))

        classes = self._live_in_classes(cqip_pc, region)
        report = SquashRiskReport(
            sp_pc=sp_pc,
            cqip_pc=cqip_pc,
            store_pcs=tuple(pc for pc, _ in stores),
            load_pcs=tuple(pc for pc, _ in loads),
            may_raw=frozenset(may),
            likely_raw=frozenset(likely),
            live_in_classes=classes,
            recommended_predictor=_recommend(classes),
            risk_score=_risk_score(classes, may, likely),
        )
        self._pair_memo[key] = report
        return report


def _recommend(classes: Tuple[Tuple[int, LiveInClass], ...]) -> str:
    """Value-predictor recommendation from the live-in classes."""
    if not classes:
        return "none"
    worst = max(cls for _, cls in classes)
    if worst <= LiveInClass.AFFINE:
        return "stride"
    if worst is LiveInClass.MEMORY_CARRIED:
        return "sync"
    return "fcm"


def _risk_score(
    classes: Tuple[Tuple[int, LiveInClass], ...],
    may: Set[Tuple[int, int]],
    likely: Set[Tuple[int, int]],
) -> float:
    """Scalar squash-risk estimate (live-in weights + RAW counts)."""
    score = sum(_CLASS_WEIGHT[cls] for _, cls in classes)
    score += 1.0 * min(len(likely), 8)
    score += 0.125 * min(len(may), 16)
    return score


def analyze_pairs(
    program: Program,
    pairs: SpawnPairSet,
    cfg: Optional[StaticCFG] = None,
    analysis: Optional[DependenceAnalysis] = None,
) -> Dict[Tuple[int, int], SquashRiskReport]:
    """Risk reports for every pair (alternatives included) in a pair set.

    Pairs whose pcs lie outside the program are silently skipped (they can
    never spawn; the static validator rejects them separately).

    Args:
        program: Program the pairs refer to.
        pairs: The pair set to analyse.
        cfg: Optional pre-built static CFG.
        analysis: Optional shared :class:`DependenceAnalysis` instance.

    Returns:
        ``{(sp_pc, cqip_pc): SquashRiskReport}`` for the analysable pairs.
    """
    analysis = analysis or DependenceAnalysis(program, cfg)
    reports: Dict[Tuple[int, int], SquashRiskReport] = {}
    for pair in pairs.all_pairs():
        try:
            reports[pair.key()] = analysis.analyze_pair(
                pair.sp_pc, pair.cqip_pc
            )
        except ValueError:
            continue
    return reports
