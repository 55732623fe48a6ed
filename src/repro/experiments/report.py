"""Shape checks: the paper's headline qualitative claims as executable
predicates over the regenerated figures.

``run_shape_checks`` consumes the dict of :class:`FigureResult` produced by
the figure drivers and evaluates each claim, returning structured results
that the EXPERIMENTS.md generator renders as a live checklist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.framework import FigureResult


@dataclass
class ShapeCheck:
    """One verified qualitative claim."""

    claim: str
    passed: bool
    observed: str


def _bench_value(result: FigureResult, series: str, bench: str) -> float:
    return result.series[series][result.benchmarks.index(bench)]


def run_shape_checks(figures: Dict[str, FigureResult]) -> List[ShapeCheck]:
    """Return every headline claim evaluated against the figures."""
    checks: List[ShapeCheck] = []

    def add(claim: str, fn: Callable[[], tuple]) -> None:
        try:
            passed, observed = fn()
        except Exception as exc:  # a missing figure is a failed check
            passed, observed = False, f"error: {exc}"
        checks.append(ShapeCheck(claim=claim, passed=passed, observed=observed))

    def compress_fewest_pairs():
        fig2 = figures["figure2"]
        selected = dict(zip(fig2.benchmarks, fig2.series["selected_pairs"]))
        passed = selected["compress"] <= min(
            selected[b] for b in ("go", "perl", "vortex")
        )
        return passed, f"compress={selected['compress']:.0f} pairs"

    add(
        "compress yields the fewest selected pairs (paper: ~30 vs ~500 avg)",
        compress_fewest_pairs,
    )

    def ijpeg_on_top():
        fig3 = figures["figure3"]
        speedups = dict(zip(fig3.benchmarks, fig3.series["speedup"]))
        top = max(speedups.values())
        passed = speedups["ijpeg"] >= 0.95 * top
        return passed, f"ijpeg={speedups['ijpeg']:.2f}x of max {top:.2f}x"

    add("ijpeg (most regular) tops the suite (paper: 11.9x)", ijpeg_on_top)

    def meaningful_speedup():
        hmean = figures["figure3"].summary["hmean"]
        return hmean > 2.0, f"hmean {hmean:.2f}x (paper 7.2x)"

    add(
        "large average speed-up from profile-based spawning at 16 TUs",
        meaningful_speedup,
    )

    def profile_wins_somewhere_big():
        fig8 = figures["figure8"]
        ratios = dict(
            zip(fig8.benchmarks, fig8.series["profile_over_heuristics"])
        )
        winners = [b for b, r in ratios.items() if r > 1.02]
        return (
            len(winners) >= 3,
            f"profile wins on {', '.join(winners) or 'none'}",
        )

    add(
        "profile-based beats the combined heuristics on several benchmarks "
        "(paper: ~20% average win)",
        profile_wins_somewhere_big,
    )

    def hit_ratio_near_70():
        fig9a = figures["figure9a"]
        value = fig9a.summary["stride_profile"]
        return 0.5 <= value <= 0.9, f"stride hit ratio {value:.2f} (paper 0.70)"

    add("live-in value-prediction hit ratio near 70%", hit_ratio_near_70)

    def realistic_vp_costs():
        fig9b = figures["figure9b"]
        perfect = fig9b.summary["perfect_profile"]
        stride = fig9b.summary["stride_profile"]
        return stride < perfect, (
            f"stride {stride:.2f}x vs perfect {perfect:.2f}x "
            f"({1 - stride / perfect:.0%} loss; paper ~34%)"
        )

    add(
        "realistic value prediction costs substantial performance",
        realistic_vp_costs,
    )

    def alt_orderings_do_not_win():
        fig10b = figures["figure10b"]
        dist = fig10b.summary["distance"]
        alt = max(fig10b.summary["independent"], fig10b.summary["predictable"])
        return alt <= dist * 1.1, (
            f"best alternative {alt:.2f}x vs distance {dist:.2f}x "
            f"(paper: ~35% below)"
        )

    add(
        "independence/predictability CQIP ordering does not beat distance",
        alt_orderings_do_not_win,
    )

    def overhead_mild():
        fig11 = figures["figure11"]
        value = fig11.summary["profile"]
        return 0.75 <= value <= 1.0, f"slow-down {value:.2f} (paper 0.88)"

    add("8-cycle initialisation overhead costs ~10-15%", overhead_mild)

    def four_tu_scales():
        fig12 = figures["figure12"]
        perfect4 = fig12.summary["perfect_profile"]
        perfect16 = figures["figure3"].summary["hmean"]
        return 1.0 < perfect4 <= 4.0 and perfect4 < perfect16, (
            f"4 TUs {perfect4:.2f}x vs 16 TUs {perfect16:.2f}x "
            f"(paper 2.75x vs 7.2x)"
        )

    add("4 thread units retain a proportional share of the gain", four_tu_scales)

    def profile_transfers():
        ext = figures["profile_input_sensitivity"]
        value = ext.summary["transfer"]
        return value > 0.7, f"transfer ratio {value:.2f}"

    add(
        "profiled pairs transfer to an unseen input (extension)",
        profile_transfers,
    )

    return checks


def render_checklist(checks: List[ShapeCheck]) -> str:
    """Return the Markdown table of the live shape checks."""
    lines = [
        "| Shape claim | Status | Observed |",
        "|---|---|---|",
    ]
    for check in checks:
        status = "PASS" if check.passed else "**DIVERGES**"
        lines.append(f"| {check.claim} | {status} | {check.observed} |")
    return "\n".join(lines)
