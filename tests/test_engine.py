"""Parallel-engine tests: serial/parallel equivalence and resume."""

import pytest

from repro.experiments import figures, framework
from repro.experiments.engine import (
    ParallelEngine,
    Point,
    execute_point,
    figure_points,
    point_key_fields,
    run_figure,
)

SCALE = 0.12


def _mini_points(scale=SCALE, workloads=("compress", "li")):
    """A two-workload mini-sweep (the cheapest simulate points)."""
    return [
        Point(
            key=f"mini|{name}",
            runner="simulate",
            params={
                "name": name,
                "policy": "profile",
                "scale": scale,
                "overrides": {},
            },
        )
        for name in workloads
    ]


@pytest.fixture(autouse=True)
def _fresh_memos():
    framework.clear_memos()
    yield
    framework.clear_memos()


class TestPoints:
    def test_figure_points_cover_both_policies(self):
        points = figure_points("figure8", SCALE)
        keys = [p.key for p in points]
        assert len(keys) == len(set(keys))
        policies = {p.params["policy"] for p in points}
        assert policies == {"profile", "heuristics"}

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            figure_points("figure99")

    def test_points_are_picklable(self):
        import pickle

        for point in figure_points("figure8", SCALE):
            assert pickle.loads(pickle.dumps(point)) == point

    def test_execute_point_matches_direct_run(self):
        point = _mini_points()[0]
        payload = execute_point(point)
        stats = framework.run_policy("compress", "profile", scale=SCALE)
        assert payload["cycles"] == stats.cycles
        assert payload["baseline"] == framework.baseline_cycles(
            "compress", scale=SCALE
        )


class TestEquivalence:
    def test_parallel_equals_serial_mini_sweep(self, tmp_path):
        points = _mini_points()
        serial = ParallelEngine(jobs=1, cache_dir=tmp_path / "serial")
        serial_results = serial.run(points)

        framework.clear_memos()
        parallel = ParallelEngine(jobs=2, cache_dir=tmp_path / "parallel")
        parallel_results = parallel.run(points)

        assert list(serial_results) == list(parallel_results)
        for key in serial_results:
            assert serial_results[key].ok and parallel_results[key].ok
            assert serial_results[key].value == parallel_results[key].value

    def test_run_figure_parallel_equals_serial(self, tmp_path):
        for figure in ("figure3", "profile_input_sensitivity"):
            framework.clear_memos()
            serial = run_figure(figure, SCALE, ParallelEngine(
                jobs=1, cache_dir=tmp_path / f"s-{figure}"
            ))
            framework.clear_memos()
            parallel = run_figure(figure, SCALE, ParallelEngine(
                jobs=2, cache_dir=tmp_path / f"p-{figure}"
            ))
            assert serial.series == parallel.series, figure
            assert serial.summary == parallel.summary, figure
            assert serial.render() == parallel.render(), figure

    def test_warm_cache_serves_repeat_sweep(self, tmp_path):
        points = _mini_points()
        engine = ParallelEngine(jobs=1, cache_dir=tmp_path)
        first = engine.run(points)
        framework.clear_memos()
        warm = ParallelEngine(jobs=1, cache_dir=tmp_path)
        second = warm.run(points)
        assert warm.cache_hit_rate() == 1.0
        for key in first:
            assert first[key].value == second[key].value

    def test_duplicate_keys_rejected(self):
        point = _mini_points()[0]
        with pytest.raises(ValueError):
            ParallelEngine(jobs=1).run([point, point])


class TestCheckpointResume:
    """A killed sweep resumes from the point artifacts of its cache dir."""

    def test_resume_mid_sweep_under_jobs_4(self, tmp_path):
        points = _mini_points(workloads=("compress", "li", "ijpeg"))
        cache_dir = tmp_path / "cache"

        # First run completes only one point (simulating a killed sweep).
        first = ParallelEngine(jobs=1, cache_dir=cache_dir)
        done = first.run(points[:1])
        assert done[points[0].key].ok

        framework.clear_memos()
        seen = []
        resumed_engine = ParallelEngine(jobs=4, cache_dir=cache_dir)
        results = resumed_engine.run(
            points,
            progress=lambda key, outcome, resumed: seen.append((key, resumed)),
        )
        assert list(results) == [p.key for p in points]
        assert all(outcome.ok for outcome in results.values())
        assert (points[0].key, True) in seen  # replayed, not re-run
        assert {key for key, resumed in seen if not resumed} == {
            p.key for p in points[1:]
        }

        # A third run resumes everything, at a 100% hit rate.
        framework.clear_memos()
        seen.clear()
        third = ParallelEngine(jobs=4, cache_dir=cache_dir)
        replay = third.run(
            points,
            progress=lambda key, outcome, resumed: seen.append((key, resumed)),
        )
        assert sorted(seen) == sorted((p.key, True) for p in points)
        assert third.cache_hit_rate() == 1.0
        assert {k: o.value for k, o in replay.items()} == {
            k: o.value for k, o in results.items()
        }

    def test_figure_checkpoint_reruns_points_of_another_scale(self, tmp_path):
        # Point keys carry no scale, but point artifacts are keyed on it:
        # a cache filled at one scale must not answer for another.
        def engine():
            return ParallelEngine(jobs=1, cache_dir=tmp_path)

        run_figure("figure3", 0.08, engine())
        framework.clear_memos()
        resumed = []
        result = run_figure(
            "figure3", SCALE, engine(),
            progress=lambda key, outcome, was: resumed.append(was),
        )
        assert len(resumed) == len(framework.suite()) and not any(resumed)
        framework.clear_memos()
        assert result.render() == run_figure("figure3", SCALE).render()

        # The next run at this scale resumes every point.
        framework.clear_memos()
        resumed.clear()
        again = run_figure(
            "figure3", SCALE, engine(),
            progress=lambda key, outcome, was: resumed.append(was),
        )
        assert len(resumed) == len(framework.suite()) and all(resumed)
        assert again.render() == result.render()


EXTENSIONS = ["heuristic_breakdown", "profile_input_sensitivity"]


class TestExtensionDrivers:
    @pytest.mark.parametrize("driver", EXTENSIONS)
    def test_a_warm_rerun_simulates_nothing(
        self, tmp_path, monkeypatch, driver
    ):
        from repro import cmt
        from repro.cmt import processor

        run_figure(driver, 0.05, ParallelEngine(jobs=1, cache_dir=tmp_path))
        framework.clear_memos()
        calls = []
        real_simulate = processor.simulate

        def counting_simulate(*args, **kwargs):
            calls.append(args[0].program.name)
            return real_simulate(*args, **kwargs)

        # Every attribute a simulation is reached through.
        for module in (processor, cmt, framework):
            monkeypatch.setattr(module, "simulate", counting_simulate)
        seen = []
        run_figure(
            driver, 0.05, ParallelEngine(jobs=1, cache_dir=tmp_path),
            progress=lambda key, outcome, resumed: seen.append(resumed),
        )
        assert calls == []
        assert len(seen) == len(figure_points(driver, 0.05)) and all(seen)

    def test_inputs_key_their_points_and_artifacts(self, tmp_path):
        points = figure_points("profile_input_sensitivity", 0.05)
        keys = {p.key.split("|", 3)[3] for p in points}
        assert keys == {
            "base|dataset=ref|profile_dataset=ref", "base|dataset=ref",
        }
        # A point at the default inputs names none, and naming them
        # keys the same artifact.
        for figure in figures.RUNS:
            if figure != "profile_input_sensitivity":
                for point in figure_points(figure, 0.05):
                    assert set(point.params) == {
                        "name", "policy", "scale", "overrides",
                    }
                    assert point.key.count("|") == 3
        params = figure_points("figure3", 0.05)[0].params
        named = {**params, "dataset": "train", "profile_dataset": "train"}
        assert point_key_fields("simulate", named) == point_key_fields(
            "simulate", params
        )

        from repro.cache import ArtifactCache

        cache = ArtifactCache(tmp_path)
        with framework.use_cache(cache):
            for point in points[:1] + points[8:9]:
                execute_point(point, cache)
        # go's self- and cross-profiled points: both simulate ref (one
        # baseline), on pairs selected on ref and on train.
        summary = cache.disk_summary()
        assert {kind: summary[kind].entries for kind in summary} == {
            "trace": 2, "pairs": 2, "baseline": 1, "point": 2,
        }

    @pytest.mark.parametrize("driver", EXTENSIONS)
    def test_read_their_traces_from_the_cache(
        self, tmp_path, monkeypatch, driver
    ):
        from repro.cache import ArtifactCache
        from repro.workloads import suite

        with framework.use_cache(ArtifactCache(tmp_path)):
            for name in framework.suite():
                for dataset in ("train", "ref"):
                    framework.trace_for(name, 0.05, dataset)
        executed = []
        real_run = suite.run_program

        def counting_run(program, max_steps=None):
            executed.append(program.name)
            return real_run(program, max_steps=max_steps)

        monkeypatch.setattr(suite, "run_program", counting_run)
        run_figure(driver, 0.05, ParallelEngine(jobs=1, cache_dir=tmp_path))
        assert executed == []


class TestSeeding:
    def test_every_grid_figure_assembles_from_seeded_points(self, monkeypatch):
        """A driver reads exactly the points ``figure_points`` declares."""

        def no_simulation(*args, **kwargs):
            raise AssertionError("figure driver simulated a point")

        monkeypatch.setattr(framework, "simulate_point", no_simulation)
        monkeypatch.setattr(framework, "simulate", no_simulation)
        for figure in figures.RUNS:
            framework.clear_memos()
            points = figure_points(figure, SCALE)
            runs = len(figures.RUNS[figure])
            assert len(points) == runs * len(framework.suite()), figure
            speedups = {}
            for index, point in enumerate(points):
                cycles, baseline = 100 + index, 400 + 3 * index
                payload = {
                    "cycles": cycles,
                    "baseline": baseline,
                    "speedup": baseline / cycles,
                    "avg_active_threads": 2.0 + index,
                    "avg_thread_size": 10.0 + index,
                    "value_hit_rate": 0.5,
                }
                figures.seed_run(**point.params, payload=payload)
                speedups[point.params["name"]] = payload["speedup"]
            result = figures.ALL_FIGURES[figure](SCALE)
            for label, values in result.series.items():
                assert len(values) == len(result.benchmarks), (figure, label)
            if figure == "figure3":
                assert result.series["speedup"] == [
                    speedups[name] for name in result.benchmarks
                ]
