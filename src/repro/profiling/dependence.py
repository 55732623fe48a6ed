"""Inter-thread dependence and predictability profiling for spawning pairs.

The paper's alternative CQIP-ordering criteria (Section 3.1) need, for each
candidate pair, estimates of how many instructions of the would-be
speculative thread are *independent* of the instructions the spawner still
has to execute (the SP->CQIP region), and how many are independent **or**
fed only by stride-predictable live-in values.  This module measures both
over sampled occurrences of the pair in the profile trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.exec.trace import Trace


@dataclass
class PairDependenceProfile:
    """Sampled dependence statistics for one (SP pc, CQIP pc) pair."""

    sp_pc: int
    cqip_pc: int
    samples: int
    avg_thread_instructions: float
    #: Average instructions (transitively) independent of the spawn region.
    avg_independent: float
    #: Average instructions independent or fed by stride-predictable live-ins.
    avg_predictable_or_independent: float
    #: Per live-in register: stride-prediction hit-rate estimate.
    livein_predictability: Dict[int, float]


def _stride_hit_rates(value_history: Dict[int, List[int]]) -> Dict[int, float]:
    """Fraction of occurrences where value[k] == value[k-1] + stride[k-1]."""
    rates: Dict[int, float] = {}
    for reg, values in value_history.items():
        if len(values) < 3:
            # Too few observations to establish a stride: assume last-value
            # behaviour (hit when the value repeats).
            hits = sum(1 for a, b in zip(values, values[1:]) if a == b)
            rates[reg] = hits / max(len(values) - 1, 1)
            continue
        hits = 0
        trials = 0
        for older, prev, cur in zip(values, values[1:], values[2:]):
            if not all(isinstance(v, int) for v in (older, prev, cur)):
                continue
            trials += 1
            if cur == prev + (prev - older):
                hits += 1
        rates[reg] = hits / trials if trials else 0.0
    return rates


def profile_pair_dependences(
    trace: Trace,
    sp_pc: int,
    cqip_pc: int,
    thread_length: int,
    max_samples: int = 8,
    predictability_threshold: float = 0.6,
) -> PairDependenceProfile:
    """Measure dependence/predictability statistics for one spawning pair.

    For up to ``max_samples`` dynamic occurrences of SP followed by CQIP,
    the would-be speculative thread is taken to be the ``thread_length``
    instructions starting at the CQIP (the paper assumes a thread size
    equal to the SP->CQIP distance).  An instruction is *independent* when
    none of its register/memory inputs (transitively, within the thread)
    come from the spawn region [SP, CQIP).
    """
    # Per static pc, (producer column, register) of each non-zero register
    # read: register 0 never has a producer, so it can never tie a thread
    # to the spawn region.
    pcs = trace.columns.pc
    slots_of = trace.columns.operand_slots()
    mem_deps = trace.columns.mem_dep
    sp_positions = trace.positions_of(sp_pc)
    n = len(trace)

    # Collect sample windows: SP occurrence -> next CQIP occurrence.
    windows: List[Tuple[int, int]] = []
    stride = max(1, len(sp_positions) // max_samples)
    for idx in range(0, len(sp_positions), stride):
        if len(windows) >= max_samples:
            break
        sp_pos = sp_positions[idx]
        cqip_pos = trace.next_occurrence(
            cqip_pc, sp_pos, min(n, sp_pos + 8 * max(thread_length, 32) + 1)
        )
        if cqip_pos is None and sp_pc == cqip_pc:
            cqip_pos = trace.next_occurrence(
                sp_pc, sp_pos, min(n, sp_pos + 8 * max(thread_length, 32) + 1)
            )
        if cqip_pos is not None:
            windows.append((sp_pos, cqip_pos))

    # Live-in value histories across *all* SP occurrences (not just the
    # sampled windows) so stride detection has enough points.
    livein_values: Dict[int, List] = {}
    independent_counts: List[int] = []
    pred_counts: List[int] = []
    thread_sizes: List[int] = []

    # First pass over sample windows: classify dependences.
    per_window_livein_regs: List[Dict[int, int]] = []
    for sp_pos, cqip_pos in windows:
        end = min(n, cqip_pos + thread_length)
        dependent = set()
        livein_regs: Dict[int, int] = {}
        independent = 0
        for pos in range(cqip_pos, end):
            dep = False
            for dep_col, reg in slots_of[pcs[pos]]:
                producer = dep_col[pos]
                if sp_pos <= producer < cqip_pos:
                    dep = True
                    livein_regs.setdefault(reg, pos)
                elif producer in dependent:
                    dep = True
            mem_producer = mem_deps[pos]
            if mem_producer >= 0 and (
                sp_pos <= mem_producer < cqip_pos or mem_producer in dependent
            ):
                dep = True
            if dep:
                dependent.add(pos)
            else:
                independent += 1
        independent_counts.append(independent)
        thread_sizes.append(end - cqip_pos)
        per_window_livein_regs.append(livein_regs)
        for reg in livein_regs:
            livein_values.setdefault(reg, [])

    # Gather live-in value histories over all windows of the pair.
    for sp_pos, cqip_pos in windows:
        for reg in livein_values:
            livein_values[reg].append(trace.value_of_register_at(reg, cqip_pos))

    predictability = _stride_hit_rates(livein_values)

    # Second pass: count instructions that are independent OR whose spawn
    # -region inputs flow only through predictable live-in registers.
    for w_idx, (sp_pos, cqip_pos) in enumerate(windows):
        end = min(n, cqip_pos + thread_length)
        blocked = set()  # positions poisoned by an unpredictable live-in
        ok = 0
        for pos in range(cqip_pos, end):
            bad = False
            for dep_col, reg in slots_of[pcs[pos]]:
                producer = dep_col[pos]
                if sp_pos <= producer < cqip_pos:
                    if predictability.get(reg, 0.0) < predictability_threshold:
                        bad = True
                elif producer in blocked:
                    bad = True
            mem_producer = mem_deps[pos]
            if mem_producer >= 0 and (
                sp_pos <= mem_producer < cqip_pos or mem_producer in blocked
            ):
                bad = True  # memory values are never predicted (paper 4.1)
            if bad:
                blocked.add(pos)
            else:
                ok += 1
        pred_counts.append(ok)

    samples = len(windows)
    return PairDependenceProfile(
        sp_pc=sp_pc,
        cqip_pc=cqip_pc,
        samples=samples,
        avg_thread_instructions=(
            sum(thread_sizes) / samples if samples else 0.0
        ),
        avg_independent=(
            sum(independent_counts) / samples if samples else 0.0
        ),
        avg_predictable_or_independent=(
            sum(pred_counts) / samples if samples else 0.0
        ),
        livein_predictability=predictability,
    )
