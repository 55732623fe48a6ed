"""Static program analysis: CFG, dominators, dataflow, lint, validation.

This package analyses :class:`~repro.isa.program.Program` objects without
executing them — the compile-time counterpart of :mod:`repro.profiling`'s
trace-driven analyses.  It powers the ``repro lint``, ``repro
validate-pairs``, ``repro analyze-deps`` and ``repro sanitize`` CLI
commands.  Pair selection (:mod:`repro.spawning`) imports nothing from
here; the validator checks its output in the tests.
:mod:`repro.analysis.dependence` adds
memory-dependence race analysis over spawning pairs and
:mod:`repro.analysis.sanitizer` replays simulation event streams against
the speculation invariants.
"""

from repro.analysis.cfg import EdgeKind, StaticBlock, StaticCFG
from repro.analysis.dataflow import (
    DeadStore,
    LivenessResult,
    ReachingDefsResult,
    UndefinedRead,
    dead_stores,
    inst_def,
    inst_uses,
    solve_liveness,
    solve_reaching,
)
from repro.analysis.dependence import (
    TOP,
    DependenceAnalysis,
    Interval,
    LiveInClass,
    SquashRiskReport,
    analyze_pairs,
    continuation_pc_ranges,
    region_pc_ranges,
)
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.dominators import (
    DominatorTree,
    NaturalLoop,
    dominator_tree,
    natural_loops,
    postdominator_tree,
)
from repro.analysis.lint import (
    HIGH_SQUASH_RISK_THRESHOLD,
    LINT_RULES,
    lint_program,
)
from repro.analysis.sanitizer import (
    REALISTIC_PREDICTORS,
    SanitizerReport,
    Violation,
    sanitize_events,
    sanitize_run,
)
from repro.analysis.validator import (
    PairFinding,
    PairValidationConfig,
    PairValidationReport,
    validate_pairs,
)

__all__ = [
    "EdgeKind",
    "StaticBlock",
    "StaticCFG",
    "DeadStore",
    "LivenessResult",
    "ReachingDefsResult",
    "UndefinedRead",
    "dead_stores",
    "inst_def",
    "inst_uses",
    "solve_liveness",
    "solve_reaching",
    "TOP",
    "DependenceAnalysis",
    "Interval",
    "LiveInClass",
    "SquashRiskReport",
    "analyze_pairs",
    "continuation_pc_ranges",
    "region_pc_ranges",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "DominatorTree",
    "NaturalLoop",
    "dominator_tree",
    "natural_loops",
    "postdominator_tree",
    "HIGH_SQUASH_RISK_THRESHOLD",
    "LINT_RULES",
    "lint_program",
    "REALISTIC_PREDICTORS",
    "SanitizerReport",
    "Violation",
    "sanitize_events",
    "sanitize_run",
    "PairFinding",
    "PairValidationConfig",
    "PairValidationReport",
    "validate_pairs",
]
