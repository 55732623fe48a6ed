"""Reproduction drivers for every figure in the paper's evaluation.

Each ``figureN`` function sweeps the same parameters as the paper's plot
and returns a :class:`FigureResult` whose series correspond to the bar
groups of the original figure.  Paper-quoted aggregates are attached as
``paper_reference`` so EXPERIMENTS.md can show paper-vs-measured side by
side.

The simulation runs of every driver but Figure 2 (which counts pairs
and simulates nothing) are declared once, in :data:`RUNS`.  The parallel
engine expands that table into sweep points
(:func:`~repro.experiments.engine.figure_points`) and records their
payloads with :func:`seed_run`; the drivers read the same points back
through the active artifact cache, one
:func:`~repro.experiments.framework.simulate_point` payload per run and
workload, and simulate only a payload the cache does not hold.  So this
module imports no simulator or pair-selection function.

All functions take ``scale`` (workload size multiplier) so the benchmark
harness can run reduced sweeps.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Union

from repro.experiments import framework
from repro.experiments.framework import (
    EXPERIMENT_CONFIG,
    FigureResult,
    pair_set_for,
    suite,
)
from repro.metrics import (
    arithmetic_mean,
    harmonic_mean,
    weighted_harmonic_mean,
)

#: Config overrides of a run: a dict, or a function of the workload name.
Overrides = Union[Dict[str, Any], Callable[[str], Dict[str, Any]]]

#: A run: spawning policy, config overrides and, optionally, inputs.
Run = Union[Tuple[str, Overrides], Tuple[str, Overrides, Dict[str, str]]]


def _removal(name: str, cycles: int = 50) -> int:
    """Per-benchmark alone-threshold: the paper uses 200 for compress
    (its ~30 selected pairs disappear under the aggressive setting)."""
    return 200 if name == "compress" else cycles


def _with_removal(**overrides: Any) -> Callable[[str], Dict[str, Any]]:
    """Overrides adding the workload's alone-threshold (:func:`_removal`)."""
    return lambda name: {"removal_cycles": _removal(name), **overrides}


#: Driver -> run label -> (spawning policy, config overrides[, inputs]).
#: ``inputs`` names ``simulate_point``'s ``dataset``/``profile_dataset``
#: where they are not ``train``, so a point at the default inputs names
#: none.  A label is the figure's series name, except in Figures 8 and
#: 11, whose series are ratios of two runs.  Every run covers the suite.
RUNS: Dict[str, Dict[str, Run]] = {
    "figure3": {"speedup": ("profile", {})},
    "figure4": {"active_threads": ("profile", {})},
    "figure5a": {
        "no_removal": ("profile", {"removal_cycles": None}),
        "removal_50": ("profile", {"removal_cycles": 50}),
        "removal_200": ("profile", {"removal_cycles": 200}),
    },
    "figure5b": {
        f"occurrences_{n}": (
            "profile", {"removal_cycles": 50, "removal_occurrences": n}
        )
        for n in (1, 8, 16)
    },
    "figure6": {
        "removal_50": ("profile", _with_removal(reassign=False)),
        "reassign": ("profile", _with_removal(reassign=True)),
    },
    "figure7a": {"thread_size": ("profile", _with_removal())},
    "figure7b": {
        "no_min_size": ("profile", _with_removal(min_thread_size=None)),
        "min_size_32": ("profile", _with_removal(min_thread_size=32)),
    },
    "figure8": {"profile": ("profile", {}), "heuristics": ("heuristics", {})},
    "figure9a": {
        f"{vp}_{policy}": (policy, {"value_predictor": vp})
        for vp in ("stride", "fcm")
        for policy in ("profile", "heuristics")
    },
    "figure9b": {
        "perfect_profile": ("profile", {"value_predictor": "perfect"}),
        "stride_profile": ("profile", {"value_predictor": "stride"}),
        "perfect_heur": ("heuristics", {"value_predictor": "perfect"}),
        "stride_heur": ("heuristics", {"value_predictor": "stride"}),
    },
    "figure10a": {
        f"{vp}_{order}": (f"profile-{order}", {"value_predictor": vp})
        for vp in ("stride", "fcm")
        for order in ("independent", "predictable")
    },
    "figure10b": {
        "independent": ("profile-independent", {"value_predictor": "stride"}),
        "predictable": ("profile-predictable", {"value_predictor": "stride"}),
        "distance": ("profile", {"value_predictor": "stride"}),
    },
    "figure11": {
        f"{policy}_{overhead}": (
            policy, {"value_predictor": "stride", "init_overhead": overhead}
        )
        for policy in ("profile", "heuristics")
        for overhead in (0, 8)
    },
    "figure12": {
        f"{label}_{policy}": (
            policy,
            {"num_thread_units": 4, "value_predictor": vp,
             "init_overhead": overhead},
        )
        for label, vp, overhead in (
            ("perfect", "perfect", 0),
            ("stride", "stride", 0),
            ("stride_overhead", "stride", 8),
        )
        for policy in ("profile", "heuristics")
    },
    # Each traditional scheme alone against their combination, the
    # Figure 8 baseline (whose points ``combined`` shares).
    "heuristic_breakdown": {
        "loop_iter": ("loop-iterations", {}),
        "loop_cont": ("loop-continuations", {}),
        "sub_cont": ("subroutine-continuations", {}),
        "combined": ("heuristics", {}),
    },
    # Simulating the ref input on pairs profiled on ref itself, and on
    # the train pairs of Figure 3.
    "profile_input_sensitivity": {
        "self_profiled": (
            "profile", {}, {"dataset": "ref", "profile_dataset": "ref"}
        ),
        "cross_profiled": ("profile", {}, {"dataset": "ref"}),
    },
}


def run_params(figure: str, label: str, name: str, scale: float) -> Dict[str, Any]:
    """Return the ``simulate`` point params of run ``label`` of
    ``figure`` on workload ``name``.

    An override equal to :data:`EXPERIMENT_CONFIG`'s value is left out,
    so runs that spell one configuration differently share one point.
    """
    policy, overrides, *inputs = RUNS[figure][label]
    if callable(overrides):
        overrides = overrides(name)
    overrides = {
        knob: value
        for knob, value in overrides.items()
        if getattr(EXPERIMENT_CONFIG, knob) != value
    }
    return dict(
        name=name, policy=policy, scale=scale, overrides=overrides, **dict(*inputs)
    )


def seed_run(payload: Dict[str, Any], **params: Any) -> None:
    """Record a point payload computed elsewhere (by the parallel engine).

    ``params`` are a ``simulate`` point's params, as the point carries
    them, and ``payload`` is what
    :func:`~repro.experiments.framework.simulate_point` returned for
    them.  The payload goes into the active cache's memory front under
    the point's artifact key, where the figure drivers read it; nothing
    is written to disk.
    """
    from repro.experiments.engine import point_key_fields

    cache = framework.get_cache()
    fields = point_key_fields("simulate", params)
    cache.remember("point", cache.key("point", **fields), payload)


def _payloads(figure: str, label: str, scale: float) -> List[Dict[str, Any]]:
    """The point payloads of one run of ``figure``, in suite order.

    Each is read through the engine on the active cache: a payload
    recorded by :func:`seed_run` or stored by an earlier sweep is served
    from it, and any other point is simulated and stored there.
    """
    from repro.experiments import engine

    cache = framework.get_cache()
    return [
        engine.execute_point(point, cache)
        for point in engine.run_points(figure, label, scale)
    ]


def _series(figure: str, field: str, scale: float) -> Dict[str, List[float]]:
    """One series per run of ``figure``: ``field`` of every payload."""
    return {
        label: [payload[field] for payload in _payloads(figure, label, scale)]
        for label in RUNS[figure]
    }


# ----------------------------------------------------------------------
# Figure 2 — candidate and selected spawning pairs.
# ----------------------------------------------------------------------

def figure2(scale: float = 1.0) -> FigureResult:
    """Figure 2: candidate spawning pairs vs selected spawning points.

    Args:
        scale: Workload size multiplier.

    Returns:
        The figure's series (total and selected pair counts per
        benchmark) as a :class:`FigureResult`.
    """
    totals, selected = [], []
    for name in suite():
        pairs = pair_set_for(name, "profile", scale)
        totals.append(float(pairs.candidates_evaluated))
        selected.append(float(len(pairs)))
    return FigureResult(
        figure="Figure 2",
        title="Spawning pairs passing thresholds vs distinct spawning points",
        benchmarks=list(suite()),
        series={"total_pairs": totals, "selected_pairs": selected},
        summary={
            "amean_total": arithmetic_mean(totals),
            "amean_selected": arithmetic_mean(selected),
        },
        paper_reference={"amean_total": 6218, "amean_selected": 499},
        notes=(
            "absolute counts scale with static program size; the synthetic "
            "workloads are ~100x smaller than SpecInt95 binaries, so shapes "
            "(which benchmarks have many/few pairs) are the comparison point"
        ),
    )


# ----------------------------------------------------------------------
# Figure 3 / Figure 4 — potential of the profile-based policy.
# ----------------------------------------------------------------------

def figure3(scale: float = 1.0) -> FigureResult:
    """Figure 3: speed-up at 16 TUs, profile policy, perfect VP.

    Args:
        scale: Workload size multiplier.

    Returns:
        Per-benchmark speed-ups over single-threaded execution.
    """
    payloads = _payloads("figure3", "speedup", scale)
    values = [payload["speedup"] for payload in payloads]
    # whmean weights each speed-up by its baseline cycle count: the
    # speed-up of the suite run back to back, robust to small
    # benchmarks dominating the unweighted Hmean.
    weights = [float(payload["baseline"]) for payload in payloads]
    return FigureResult(
        figure="Figure 3",
        title="Speed-up over single-thread: 16 TUs, profile policy, perfect VP",
        benchmarks=list(suite()),
        series={"speedup": values},
        summary={
            "hmean": harmonic_mean(values),
            "whmean": weighted_harmonic_mean(values, weights),
        },
        paper_reference={"hmean": 7.2},
    )


def figure4(scale: float = 1.0) -> FigureResult:
    """Figure 4: time-weighted average number of active threads.

    Args:
        scale: Workload size multiplier.

    Returns:
        Per-benchmark average active-thread counts.
    """
    series = _series("figure4", "avg_active_threads", scale)
    return FigureResult(
        figure="Figure 4",
        title="Average number of active threads (16 TUs, perfect VP)",
        benchmarks=list(suite()),
        series=series,
        summary={"amean": arithmetic_mean(series["active_threads"])},
        paper_reference={"amean": 7.5},
    )


# ----------------------------------------------------------------------
# Figure 5 — spawning-pair removal policies.
# ----------------------------------------------------------------------

def figure5a(scale: float = 1.0) -> FigureResult:
    """Figure 5a: pair removal after N cycles executing alone.

    Args:
        scale: Workload size multiplier.

    Returns:
        Speed-ups under no removal and the 50/200-cycle schemes.
    """
    series = _series("figure5a", "speedup", scale)
    return FigureResult(
        figure="Figure 5a",
        title="Pair removal after N cycles executing alone (perfect VP)",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        paper_reference={"removal_200": 8.0},
        notes="paper: compress collapses under the aggressive 50-cycle removal",
    )


def figure5b(scale: float = 1.0) -> FigureResult:
    """Figure 5b: delayed removal — occurrences before cancelling.

    Args:
        scale: Workload size multiplier.

    Returns:
        Speed-ups with 1/8/16 alone-occurrences before removal.
    """
    series = _series("figure5b", "speedup", scale)
    return FigureResult(
        figure="Figure 5b",
        title="Delayed removal: occurrences before cancelling (50-cycle scheme)",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        notes="paper: delaying helps compress, slightly hurts the rest",
    )


# ----------------------------------------------------------------------
# Figure 6 — reassign policy.
# ----------------------------------------------------------------------

def figure6(scale: float = 1.0) -> FigureResult:
    """Figure 6: reassigning an SP to its next CQIP vs plain removal.

    Args:
        scale: Workload size multiplier.

    Returns:
        Speed-ups with and without the reassign policy.
    """
    series = _series("figure6", "speedup", scale)
    return FigureResult(
        figure="Figure 6",
        title="Reassigning an SP to its next CQIP vs plain 50-cycle removal",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        notes="paper: reassign is slightly worse (next CQIPs are too close)",
    )


# ----------------------------------------------------------------------
# Figure 7 — thread sizes and the minimum-size constraint.
# ----------------------------------------------------------------------

def figure7a(scale: float = 1.0) -> FigureResult:
    """Figure 7a: average dynamic thread size under removal.

    Args:
        scale: Workload size multiplier.

    Returns:
        Per-benchmark average committed-thread sizes.
    """
    series = _series("figure7a", "avg_thread_size", scale)
    return FigureResult(
        figure="Figure 7a",
        title="Average dynamic thread size (removal policy active)",
        benchmarks=list(suite()),
        series=series,
        summary={"amean": arithmetic_mean(series["thread_size"])},
        notes="paper: mostly below the 32-instruction selection minimum "
        "because overlapping spawns shrink threads",
    )


def figure7b(scale: float = 1.0) -> FigureResult:
    """Figure 7b: enforcing a minimum dynamic thread size of 32.

    Args:
        scale: Workload size multiplier.

    Returns:
        Speed-ups with and without the minimum-size constraint.
    """
    series = _series("figure7b", "speedup", scale)
    return FigureResult(
        figure="Figure 7b",
        title="Enforcing a minimum dynamic thread size of 32",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        notes="paper: ~10% over the plain removal policy",
    )


# ----------------------------------------------------------------------
# Figure 8 — profile-based vs traditional heuristics.
# ----------------------------------------------------------------------

def figure8(scale: float = 1.0) -> FigureResult:
    """Figure 8: profile policy vs the combined traditional heuristics.

    Args:
        scale: Workload size multiplier.

    Returns:
        Per-benchmark ratio of heuristic to profile cycle counts.
    """
    profile = _payloads("figure8", "profile", scale)
    heur = _payloads("figure8", "heuristics", scale)
    ratios = [h["cycles"] / p["cycles"] for p, h in zip(profile, heur)]
    # Weight each ratio by the profile run's cycle count: whmean is
    # then the whole-suite ratio of heuristic to profile time.
    weights = [float(p["cycles"]) for p in profile]
    return FigureResult(
        figure="Figure 8",
        title="Speed-up of the profile policy over combined heuristics",
        benchmarks=list(suite()),
        series={"profile_over_heuristics": ratios},
        summary={
            "hmean": harmonic_mean(ratios),
            "whmean": weighted_harmonic_mean(ratios, weights),
        },
        paper_reference={"hmean": 1.20},
        notes="paper: ~20% average win; perl shows a slight (8%) slow-down",
    )


# ----------------------------------------------------------------------
# Figure 9 — realistic value predictors.
# ----------------------------------------------------------------------

def figure9a(scale: float = 1.0) -> FigureResult:
    """Figure 9a: live-in value-prediction hit ratios (16KB tables).

    Args:
        scale: Workload size multiplier.

    Returns:
        Hit ratios per predictor (stride/fcm) and policy.
    """
    series = _series("figure9a", "value_hit_rate", scale)
    return FigureResult(
        figure="Figure 9a",
        title="Live-in value-prediction hit ratio (16KB predictors)",
        benchmarks=list(suite()),
        series=series,
        summary={k: arithmetic_mean(v) for k, v in series.items()},
        paper_reference={"stride_profile": 0.70},
        notes="paper: ~70% across predictors and policies",
    )


def figure9b(scale: float = 1.0) -> FigureResult:
    """Figure 9b: speed-ups with the stride value predictor.

    Args:
        scale: Workload size multiplier.

    Returns:
        Speed-ups under perfect vs stride prediction per policy.
    """
    series = _series("figure9b", "speedup", scale)
    return FigureResult(
        figure="Figure 9b",
        title="Speed-ups with the stride value predictor",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        paper_reference={"stride_profile": 6.0, "stride_heur": 5.5},
        notes="paper: realistic prediction costs both policies >25%; the "
        "profile advantage narrows to ~13%",
    )


# ----------------------------------------------------------------------
# Figure 10 — alternative CQIP-ordering criteria.
# ----------------------------------------------------------------------

def figure10a(scale: float = 1.0) -> FigureResult:
    """Figure 10a: hit ratio under independent/predictable ordering.

    Args:
        scale: Workload size multiplier.

    Returns:
        Hit ratios per predictor and CQIP-ordering criterion.
    """
    series = _series("figure10a", "value_hit_rate", scale)
    return FigureResult(
        figure="Figure 10a",
        title="Hit ratio under independent/predictable CQIP ordering",
        benchmarks=list(suite()),
        series=series,
        summary={k: arithmetic_mean(v) for k, v in series.items()},
        paper_reference={"stride_predictable": 0.75},
    )


def figure10b(scale: float = 1.0) -> FigureResult:
    """Figure 10b: speed-up of the alternative CQIP orderings.

    Args:
        scale: Workload size multiplier.

    Returns:
        Speed-ups of the independent/predictable/distance criteria.
    """
    series = _series("figure10b", "speedup", scale)
    return FigureResult(
        figure="Figure 10b",
        title="Speed-up of the independent/predictable ordering (stride VP)",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        notes="paper: both ~35% below the distance criterion — better hit "
        "ratios do not pay for the smaller threads",
    )


# ----------------------------------------------------------------------
# Figure 11 — thread-initialisation overhead.
# ----------------------------------------------------------------------

def figure11(scale: float = 1.0) -> FigureResult:
    """Figure 11: slow-down from an 8-cycle initialisation overhead.

    Args:
        scale: Workload size multiplier.

    Returns:
        Per-benchmark ratio of zero-overhead to 8-cycle cycles.
    """
    series = {
        policy: [
            fast["cycles"] / slow["cycles"]
            for fast, slow in zip(
                _payloads("figure11", f"{policy}_0", scale),
                _payloads("figure11", f"{policy}_8", scale),
            )
        ]
        for policy in ("profile", "heuristics")
    }
    return FigureResult(
        figure="Figure 11",
        title="Slow-down from an 8-cycle thread-initialisation overhead",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        paper_reference={"profile": 0.88, "heuristics": 0.88},
        notes="paper: ~12% average slow-down for both policies",
    )


# ----------------------------------------------------------------------
# Figure 12 — scalability: 4 thread units.
# ----------------------------------------------------------------------

def figure12(scale: float = 1.0) -> FigureResult:
    """Figure 12: speed-ups with only 4 thread units.

    Args:
        scale: Workload size multiplier.

    Returns:
        Speed-ups per (predictor, overhead, policy) combination.
    """
    series = _series("figure12", "speedup", scale)
    return FigureResult(
        figure="Figure 12",
        title="Average speed-ups with 4 thread units",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        paper_reference={
            "perfect_profile": 2.75,
            "stride_profile": 2.1,
            "stride_overhead_profile": 1.9,
        },
    )


# ----------------------------------------------------------------------
# Extension: individual-heuristic breakdown (the comparison of [15] that
# Section 4.2.1 builds on — not a numbered figure of this paper).
# ----------------------------------------------------------------------

def heuristic_breakdown(scale: float = 1.0) -> FigureResult:
    """Speed-up of each traditional scheme alone vs their combination.

    The paper cites its earlier study [15] for the observation that loop
    iterations are the strongest individual scheme on this architecture
    and that the best policy combines all three; this driver reproduces
    that supporting comparison.

    Returns:
        The comparison as a :class:`FigureResult`.
    """
    series = _series("heuristic_breakdown", "speedup", scale)
    return FigureResult(
        figure="Extension",
        title="Individual heuristic schemes vs their combination ([15])",
        benchmarks=list(suite()),
        series=series,
        summary={k: harmonic_mean(v) for k, v in series.items()},
        notes="[15]: loop iterations are the strongest single scheme on "
        "the CSMT; the combination is the baseline of Figure 8",
    )


# ----------------------------------------------------------------------
# Extension: profile-input sensitivity.  The paper profiles and evaluates
# on the training input; this driver checks that pairs selected on one
# input transfer to a different one (program text identical, data fresh).
# ----------------------------------------------------------------------

def profile_input_sensitivity(scale: float = 1.0) -> FigureResult:
    """Speed-up on a *ref* input using pairs profiled on *train*.

    ``self_profiled`` selects pairs on the evaluation input itself (the
    paper's setup); ``cross_profiled`` selects them on the training input.
    A transfer ratio near 1 means the profile generalises across inputs.

    Returns:
        The sensitivity comparison as a :class:`FigureResult`.
    """
    series = _series("profile_input_sensitivity", "speedup", scale)
    transfer = [
        c / s
        for s, c in zip(series["self_profiled"], series["cross_profiled"])
    ]
    return FigureResult(
        figure="Extension",
        title="Profile-input sensitivity: train-profiled pairs on a ref input",
        benchmarks=list(suite()),
        series=series,
        summary={
            "self_hmean": harmonic_mean(series["self_profiled"]),
            "cross_hmean": harmonic_mean(series["cross_profiled"]),
            "transfer": harmonic_mean(transfer),
        },
        notes="spawning points are pcs, so a profile transfers as long as "
        "the hot control structure is input-stable",
    )


#: All figure drivers by name, for the CLI/bench harness.
ALL_FIGURES = {
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5a": figure5a,
    "figure5b": figure5b,
    "figure6": figure6,
    "figure7a": figure7a,
    "figure7b": figure7b,
    "figure8": figure8,
    "figure9a": figure9a,
    "figure9b": figure9b,
    "figure10a": figure10a,
    "figure10b": figure10b,
    "figure11": figure11,
    "figure12": figure12,
    "heuristic_breakdown": heuristic_breakdown,
    "profile_input_sensitivity": profile_input_sensitivity,
}

