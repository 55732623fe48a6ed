"""Experiment-framework and figure-driver tests (reduced scale)."""

import pytest

from repro.experiments.framework import (
    EXPERIMENT_CONFIG,
    FigureResult,
    baseline_cycles,
    pair_set_for,
    policy_names,
    run_policy,
    simulate_point,
    suite,
)
from repro.experiments import figures

SCALE = 0.12


class TestFramework:
    def test_suite_order_matches_paper(self):
        assert list(suite()) == [
            "go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex",
        ]

    def test_policies_registered(self):
        assert set(policy_names()) >= {
            "profile",
            "profile-independent",
            "profile-predictable",
            "heuristics",
        }

    def test_pair_sets_cached(self):
        a = pair_set_for("compress", "profile", SCALE)
        b = pair_set_for("compress", "profile", SCALE)
        assert a is b

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            pair_set_for("compress", "astrology", SCALE)

    def test_baseline_and_speedup_consistent(self):
        base = baseline_cycles("compress", EXPERIMENT_CONFIG, SCALE)
        stats = run_policy("compress", "profile", EXPERIMENT_CONFIG, SCALE)
        payload = simulate_point("compress", "profile", SCALE, {})
        assert payload["baseline"] == base
        assert payload["cycles"] == stats.cycles
        assert payload["speedup"] == pytest.approx(base / stats.cycles)


class TestFigureResult:
    def test_render_contains_all_rows_and_summaries(self):
        result = FigureResult(
            figure="Figure X",
            title="demo",
            benchmarks=["a", "b"],
            series={"s1": [1.0, 2.0]},
            summary={"hmean": 1.33},
            paper_reference={"hmean": 7.2},
        )
        text = result.render()
        assert "Figure X" in text
        assert "a" in text and "b" in text
        assert "(paper: 7.2)" in text

    def test_render_without_reference(self):
        result = FigureResult(
            figure="F",
            title="t",
            benchmarks=["a"],
            series={"s": [1.0]},
            summary={"m": 1.0},
        )
        assert "paper" not in result.render()

    def test_render_grows_columns_for_long_names(self):
        long_bench = "extraordinarily_long_benchmark_name"
        long_series = "self_profiled_speedup"
        long_summary = "cross_profiled_hmean"
        result = FigureResult(
            figure="F",
            title="overflow",
            benchmarks=[long_bench, "li"],
            series={long_series: [1.2345, 1234567.89], "s": [1.0, 2.0]},
            summary={long_summary: 1.33},
        )
        lines = result.render().splitlines()
        header, row_a, row_b, summary_row = lines[1:5]

        # The name column fits the widest of header/benchmarks/summary
        # labels, so every row aligns on the same boundary.
        name_col = max(
            len("benchmark"), len(long_bench), len("li"), len(long_summary)
        )
        assert header.startswith(f"{'benchmark':>{name_col}} ")
        assert row_a.startswith(f"{long_bench:>{name_col}} ")
        assert row_b.startswith(f"{'li':>{name_col}} ")
        assert summary_row.startswith(f"{long_summary:>{name_col}} ")

        # A value column is as wide as its label and its widest value;
        # adjacent cells never fuse.
        value_col = max(len(long_series), len("1234567.89"))
        assert header.split()[1] == long_series
        assert row_a[name_col + 1:].startswith(f"{1.2345:>{value_col}.2f}")
        assert row_b[name_col + 1:].startswith(
            f"{1234567.89:>{value_col}.2f}"
        )
        assert " 1234567.89 " in f"{row_b} "


class TestFigureDrivers:
    """Run the cheap figure drivers end-to-end at a tiny scale."""

    def test_figure2_counts(self):
        result = figures.figure2(SCALE)
        assert result.benchmarks == list(suite())
        totals = result.series["total_pairs"]
        selected = result.series["selected_pairs"]
        assert all(t >= s >= 0 for t, s in zip(totals, selected))

    def test_figure3_speedups_positive(self):
        result = figures.figure3(SCALE)
        assert all(v > 0.3 for v in result.series["speedup"])
        assert result.summary["hmean"] > 0.5

    def test_figure4_activity_bounded(self):
        result = figures.figure4(SCALE)
        assert all(
            0 < v <= EXPERIMENT_CONFIG.num_thread_units
            for v in result.series["active_threads"]
        )

    def test_figure8_ratio_structure(self):
        result = figures.figure8(SCALE)
        assert len(result.series["profile_over_heuristics"]) == len(suite())

    def test_all_figures_registry_complete(self):
        expected = {
            "figure2", "figure3", "figure4", "figure5a", "figure5b",
            "figure6", "figure7a", "figure7b", "figure8", "figure9a",
            "figure9b", "figure10a", "figure10b", "figure11", "figure12",
            "heuristic_breakdown", "profile_input_sensitivity",
        }
        assert set(figures.ALL_FIGURES) == expected

    def test_profile_input_sensitivity_structure(self):
        result = figures.profile_input_sensitivity(SCALE)
        assert set(result.series) == {"self_profiled", "cross_profiled"}
        assert 0 < result.summary["transfer"] < 2.0

    def test_every_figure_driver_runs_at_tiny_scale(self):
        """Smoke-run all remaining drivers: structure only, no shape."""
        tiny = 0.08
        for name, fn in figures.ALL_FIGURES.items():
            result = fn(tiny)
            assert result.benchmarks, name
            for label, values in result.series.items():
                assert len(values) == len(result.benchmarks), (name, label)
            rendered = result.render()
            assert result.figure in rendered, name

    def test_heuristic_breakdown_series(self):
        result = figures.heuristic_breakdown(SCALE)
        assert set(result.series) == {
            "loop_iter", "loop_cont", "sub_cont", "combined",
        }
        assert all(v > 0 for v in result.series["combined"])
