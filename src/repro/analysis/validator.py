"""Static validation of spawning-pair tables against a program.

The paper selects (SP, CQIP) pairs from a *dynamic* profile; this module is
the static check of a pair table (``repro validate-pairs`` and the tests
over every policy's pairs).  Because the static CFG over-approximates
every realisable execution, anything it rejects — a pc off an instruction
boundary, a CQIP no static path can reach — can never work at runtime, so
an error-level finding marks a corrupt table or a selection bug.
Warning-level findings are the static analogues of the paper's Section
3.1 selection criteria: a short static SP→CQIP distance (criterion:
average thread size >= 32) and speculative-thread live-ins written inside
the SP→CQIP region (criterion: the thread's inputs should be independent
of, or predictable from, the instructions it is skipped over).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import StaticCFG
from repro.analysis.dataflow import (
    LivenessResult,
    inst_def,
    solve_liveness,
)
from repro.analysis.dependence import region_pc_ranges
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.dominators import postdominator_tree
from repro.isa.program import Program
from repro.spawning.pairs import SpawnPair, SpawnPairSet


@dataclass
class PairValidationConfig:
    """Thresholds for the static checks.

    ``min_static_distance`` is deliberately far below the paper's dynamic
    minimum of 32: the static shortest path is a lower bound over *all*
    paths, so only degenerate pairs should trip it by default.
    """

    min_static_distance: float = 2.0
    check_live_ins: bool = True
    check_postdominance: bool = True


@dataclass(frozen=True)
class PairFinding:
    """One validator finding attached to a specific pair."""

    pair: SpawnPair
    diagnostic: Diagnostic

    def format(self) -> str:
        """Return a one-line ``SP -> CQIP severity rule: message`` string."""
        d = self.diagnostic
        return (
            f"SP {self.pair.sp_pc} -> CQIP {self.pair.cqip_pc}  "
            f"{d.severity.label():7s} {d.rule}: {d.message}"
        )


class PairValidationReport:
    """All findings for a pair table, with per-pair and per-severity views."""

    def __init__(self, pairs: List[SpawnPair], findings: List[PairFinding]):
        self.pairs = pairs
        self.findings = findings
        self._by_key: Dict[Tuple, List[PairFinding]] = {}
        for finding in findings:
            self._by_key.setdefault(finding.pair.key(), []).append(finding)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def findings_for(self, pair: SpawnPair) -> List[PairFinding]:
        """Return the findings attached to ``pair`` (possibly empty)."""
        return self._by_key.get(pair.key(), [])

    def errors(self) -> List[PairFinding]:
        """Return the error-level findings."""
        return [
            f for f in self.findings if f.diagnostic.severity is Severity.ERROR
        ]

    def warnings(self) -> List[PairFinding]:
        """Return the warning-level findings."""
        return [
            f
            for f in self.findings
            if f.diagnostic.severity is Severity.WARNING
        ]

    def is_valid(self, pair: SpawnPair) -> bool:
        """Return True when the pair has no error-level finding."""
        return not any(
            f.diagnostic.severity is Severity.ERROR
            for f in self.findings_for(pair)
        )

    def invalid_pairs(self) -> List[SpawnPair]:
        """Return the pairs rejected by an error-level finding."""
        return [p for p in self.pairs if not self.is_valid(p)]

    def summary(self) -> str:
        """Return a one-line count of checked/rejected pairs and findings."""
        return (
            f"{len(self.pairs)} pairs checked: "
            f"{len(self.invalid_pairs())} rejected, "
            f"{len(self.errors())} errors, {len(self.warnings())} warnings"
        )

    def format(self) -> str:
        """Return the summary plus every finding, one per line."""
        lines = [self.summary()]
        lines.extend(f"  {f.format()}" for f in self.findings)
        return "\n".join(lines)


def _on_boundary(pc) -> bool:
    """pc names a real instruction boundary (integral, non-bool)."""
    return isinstance(pc, int) and not isinstance(pc, bool)


def _region_written_regs(
    cfg: StaticCFG, sp_pc: int, cqip_pc: int
) -> Set[int]:
    """Registers possibly written on some SP→CQIP path (CQIP exclusive).

    Returns:
        The register numbers defined anywhere in the pc ranges of
        :func:`repro.analysis.dependence.region_pc_ranges` (the shared
        SP→CQIP region model).
    """
    written: Set[int] = set()
    for start, end in region_pc_ranges(cfg, sp_pc, cqip_pc):
        for pc in range(start, end):
            defined = inst_def(cfg.program[pc])
            if defined is not None:
                written.add(defined)
    return written


def validate_pairs(
    program: Program,
    pairs: SpawnPairSet,
    config: Optional[PairValidationConfig] = None,
    cfg: Optional[StaticCFG] = None,
) -> PairValidationReport:
    """Cross-check every pair (including alternatives) against the program.

    Returns:
        A :class:`PairValidationReport` holding all findings.
    """
    config = config or PairValidationConfig()
    cfg = cfg or StaticCFG(program)
    liveness: Optional[LivenessResult] = None
    postdom = None
    n = len(program)
    all_pairs = pairs.all_pairs()
    findings: List[PairFinding] = []

    def add(pair: SpawnPair, rule: str, severity: Severity, msg: str) -> None:
        findings.append(
            PairFinding(pair, Diagnostic(rule, severity, msg, pc=None))
        )

    for pair in all_pairs:
        bad_boundary = False
        for name, pc in (("SP", pair.sp_pc), ("CQIP", pair.cqip_pc)):
            if not _on_boundary(pc):
                add(
                    pair,
                    "mid-instruction-pc",
                    Severity.ERROR,
                    f"{name} pc {pc!r} is not an instruction boundary",
                )
                bad_boundary = True
            elif not 0 <= pc < n:
                add(
                    pair,
                    "pc-out-of-range",
                    Severity.ERROR,
                    f"{name} pc {pc} outside program of size {n}",
                )
                bad_boundary = True
        if bad_boundary:
            continue

        if pair.cqip_pc not in cfg.by_pc:
            add(
                pair,
                "cqip-not-block-leader",
                Severity.WARNING,
                f"CQIP pc {pair.cqip_pc} is not a basic-block leader; the "
                "speculative thread would start mid-block",
            )

        distance = cfg.shortest_distance(pair.sp_pc, pair.cqip_pc)
        if distance is None:
            add(
                pair,
                "cqip-unreachable",
                Severity.ERROR,
                f"no static path from SP {pair.sp_pc} to CQIP "
                f"{pair.cqip_pc}; the thread could never be validated",
            )
            continue
        if distance < config.min_static_distance:
            add(
                pair,
                "thread-too-short",
                Severity.WARNING,
                f"shortest static SP->CQIP distance is {distance:.0f} "
                f"instruction(s) (threshold {config.min_static_distance:.0f})",
            )

        if config.check_live_ins:
            if liveness is None:
                liveness = solve_liveness(cfg)
            live_ins = liveness.live_before(pair.cqip_pc)
            written = _region_written_regs(cfg, pair.sp_pc, pair.cqip_pc)
            clobbered = sorted(live_ins & written)
            if clobbered:
                regs = ", ".join(f"r{r}" for r in clobbered)
                add(
                    pair,
                    "live-in-clobbered",
                    Severity.WARNING,
                    f"thread live-in(s) {regs} may be written between SP "
                    "and CQIP; the spawned thread depends on value "
                    "prediction for them",
                )

        if config.check_postdominance:
            if postdom is None:
                postdom = postdominator_tree(cfg)
            sp_bid = cfg.block_containing(pair.sp_pc).bid
            cq_bid = cfg.block_containing(pair.cqip_pc).bid
            if sp_bid != cq_bid and not postdom.dominates(cq_bid, sp_bid):
                add(
                    pair,
                    "cqip-not-postdominator",
                    Severity.INFO,
                    "CQIP does not postdominate SP (quasi-independent, not "
                    "control-independent: reach probability < 1 statically)",
                )

    return PairValidationReport(all_pairs, findings)

