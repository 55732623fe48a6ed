"""Cross-cutting simulator invariants over the real workload suite."""

import pytest

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.spawning import heuristic_pairs, select_profile_pairs


CONFIGS = [
    ProcessorConfig(),
    ProcessorConfig(num_thread_units=4),
    ProcessorConfig(value_predictor="stride"),
    ProcessorConfig(removal_cycles=50, min_thread_size=32),
    ProcessorConfig(spawn_order_check="none"),
]


@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
@pytest.mark.parametrize("name", ["compress", "vortex", "m88ksim"])
class TestInvariants:
    def _run(self, small_traces, name, config_index):
        trace = small_traces[name]
        pairs = select_profile_pairs(trace)
        return trace, simulate(trace, pairs, CONFIGS[config_index])

    def test_every_instruction_executed_exactly_once(
        self, small_traces, name, config_index
    ):
        trace, stats = self._run(small_traces, name, config_index)
        assert stats.instructions == len(trace)
        assert sum(stats.thread_sizes) == len(trace)

    def test_thread_count_consistency(self, small_traces, name, config_index):
        trace, stats = self._run(small_traces, name, config_index)
        assert stats.threads_committed == stats.spawns + 1

    def test_cycles_positive_and_bounded_below(
        self, small_traces, name, config_index
    ):
        trace, stats = self._run(small_traces, name, config_index)
        config = CONFIGS[config_index]
        lower = len(trace) / (
            config.num_thread_units * config.issue_width
        )
        assert stats.cycles >= lower

    def test_activity_within_unit_count(self, small_traces, name, config_index):
        trace, stats = self._run(small_traces, name, config_index)
        assert 0 < stats.avg_active_threads <= CONFIGS[config_index].num_thread_units


class TestDeterminism:
    def test_identical_runs_identical_stats(self, small_traces):
        trace = small_traces["vortex"]
        pairs = select_profile_pairs(trace)
        a = simulate(trace, pairs, ProcessorConfig())
        b = simulate(trace, pairs, ProcessorConfig())
        assert a.cycles == b.cycles
        assert a.spawns == b.spawns
        assert a.thread_sizes == b.thread_sizes


class TestPolicyRelations:
    def test_multithreading_never_catastrophically_regresses(self, small_traces):
        """With perfect value prediction, speculative threading should not
        slow any suite member down by more than a small margin."""
        for name, trace in small_traces.items():
            base = single_thread_cycles(trace, ProcessorConfig())
            for pairs in (
                select_profile_pairs(trace),
                heuristic_pairs(trace),
            ):
                stats = simulate(trace, pairs, ProcessorConfig())
                assert stats.cycles <= base * 1.15, name

    def test_profile_wins_on_the_regular_benchmark(self, small_traces):
        trace = small_traces["ijpeg"]
        base = single_thread_cycles(trace, ProcessorConfig())
        stats = simulate(trace, select_profile_pairs(trace), ProcessorConfig())
        assert base / stats.cycles > 1.4
