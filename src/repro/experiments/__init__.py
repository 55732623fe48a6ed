"""Experiment drivers: one function per figure of the paper's evaluation.

:mod:`repro.experiments.framework` provides the cached building blocks
(traces, pair sets, priming sequences, baseline cycles) and
:mod:`repro.experiments.figures` the per-figure sweeps.  Each figure
function returns a :class:`~repro.experiments.framework.FigureResult`
that renders to the same rows/series the paper plots.
:mod:`repro.experiments.engine` fans a figure's sweep grid across worker
processes (sharing the on-disk :class:`~repro.cache.ArtifactCache`).
:mod:`repro.experiments.profiler` breaks one experiment point into
phase timings and cProfile hotspots (``repro profile``).
"""

from repro.experiments.framework import (
    EXPERIMENT_CONFIG,
    EXPERIMENT_PROFILE_CONFIG,
    FigureResult,
    ResilientOutcome,
    backoff_delay,
    baseline_cycles,
    pair_set_for,
    priming_sequence_for,
    run_policy,
    run_resilient,
)
from repro.experiments.engine import ParallelEngine, figure_points, run_figure
from repro.experiments.profiler import ProfileReport, profile_run
from repro.experiments import figures

__all__ = [
    "EXPERIMENT_CONFIG",
    "EXPERIMENT_PROFILE_CONFIG",
    "FigureResult",
    "ParallelEngine",
    "ProfileReport",
    "profile_run",
    "ResilientOutcome",
    "backoff_delay",
    "baseline_cycles",
    "figure_points",
    "pair_set_for",
    "priming_sequence_for",
    "run_figure",
    "run_policy",
    "run_resilient",
    "figures",
]
