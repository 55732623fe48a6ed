"""Speculative-spawning behaviour of the clustered processor."""

from repro.cmt import ClusteredProcessor, ProcessorConfig, simulate
from repro.spawning import (
    PairKind,
    SpawnPair,
    SpawnPairSet,
    select_profile_pairs,
)


def _loop_pairs(trace):
    """The canonical loop-iteration pair of the fixture loop."""
    head = min(trace.program.loop_heads())
    positions = trace.positions_of(head)
    distance = positions[1] - positions[0]
    return SpawnPairSet(
        [
            SpawnPair(
                sp_pc=head,
                cqip_pc=head,
                kind=PairKind.LOOP_ITERATION,
                reach_probability=1.0,
                expected_distance=float(distance),
                score=float(distance),
            )
        ]
    )


class TestSpawning:
    def test_independent_loop_speeds_up(self, loop_trace):
        base = simulate(loop_trace, None, ProcessorConfig().single_threaded())
        multi = simulate(loop_trace, _loop_pairs(loop_trace), ProcessorConfig())
        assert multi.spawns > 10
        assert multi.cycles < base.cycles
        assert base.cycles / multi.cycles > 2.0

    def test_thread_sizes_tile_the_trace(self, loop_trace):
        stats = simulate(loop_trace, _loop_pairs(loop_trace), ProcessorConfig())
        assert sum(stats.thread_sizes) == len(loop_trace)
        assert stats.threads_committed == stats.spawns + 1

    def test_thread_unit_limit_bounds_activity(self, loop_trace):
        pairs = _loop_pairs(loop_trace)
        for tus in (2, 4, 16):
            stats = simulate(
                loop_trace, pairs, ProcessorConfig(num_thread_units=tus)
            )
            assert stats.avg_active_threads <= tus + 1e-9

    def test_more_thread_units_never_slower(self, loop_trace):
        pairs = _loop_pairs(loop_trace)
        c4 = simulate(loop_trace, pairs, ProcessorConfig(num_thread_units=4))
        c16 = simulate(loop_trace, pairs, ProcessorConfig(num_thread_units=16))
        assert c16.cycles <= c4.cycles * 1.1

    def test_serial_loop_gains_little(self, serial_trace):
        base = simulate(serial_trace, None, ProcessorConfig().single_threaded())
        multi = simulate(
            serial_trace,
            _loop_pairs(serial_trace),
            ProcessorConfig(value_predictor="none"),
        )
        # iterations chained through a register with no prediction: the
        # speed-up cannot approach the thread-unit count
        assert base.cycles / multi.cycles < 3.0


class TestControlMisspeculation:
    def test_unreachable_cqip_ghosts_without_order_check(self, loop_trace):
        bogus = SpawnPairSet(
            [
                SpawnPair(
                    sp_pc=min(loop_trace.program.loop_heads()),
                    cqip_pc=10_000,  # never executed
                    kind=PairKind.PROFILE,
                    reach_probability=1.0,
                    expected_distance=64.0,
                    score=64.0,
                )
            ]
        )
        stats = simulate(
            loop_trace, bogus, ProcessorConfig(spawn_order_check="none")
        )
        assert stats.control_misspeculations > 0
        assert stats.threads_committed == 1  # only the root does real work

    def test_exact_order_check_rejects_silently(self, loop_trace):
        bogus = SpawnPairSet(
            [
                SpawnPair(
                    sp_pc=min(loop_trace.program.loop_heads()),
                    cqip_pc=10_000,
                    kind=PairKind.PROFILE,
                    reach_probability=1.0,
                    expected_distance=64.0,
                    score=64.0,
                )
            ]
        )
        stats = simulate(
            loop_trace, bogus, ProcessorConfig(spawn_order_check="exact")
        )
        assert stats.control_misspeculations == 0
        assert stats.spawns_rejected_order > 0


class TestValuePredictionEffects:
    def test_perfect_at_least_as_fast_as_none(self, small_traces):
        trace = small_traces["vortex"]
        pairs = select_profile_pairs(trace)
        perfect = simulate(trace, pairs, ProcessorConfig(value_predictor="perfect"))
        nothing = simulate(trace, pairs, ProcessorConfig(value_predictor="none"))
        assert perfect.cycles <= nothing.cycles

    def test_hit_rate_recorded_for_real_predictors(self, small_traces):
        trace = small_traces["m88ksim"]
        pairs = select_profile_pairs(trace)
        stats = simulate(trace, pairs, ProcessorConfig(value_predictor="stride"))
        if stats.spawns:
            assert stats.value_predictions > 0
            assert 0.0 <= stats.value_hit_rate <= 1.0

    def test_priming_helps_or_is_neutral(self, small_traces):
        trace = small_traces["ijpeg"]
        pairs = select_profile_pairs(trace)
        primed = simulate(
            trace, pairs, ProcessorConfig(value_predictor="stride")
        )
        cold = simulate(
            trace,
            pairs,
            ProcessorConfig(value_predictor="stride", prime_value_predictor=False),
        )
        assert primed.value_hit_rate >= cold.value_hit_rate - 0.05


class TestOverhead:
    def test_init_overhead_costs_cycles(self, loop_trace):
        pairs = _loop_pairs(loop_trace)
        free = simulate(loop_trace, pairs, ProcessorConfig(init_overhead=0))
        taxed = simulate(loop_trace, pairs, ProcessorConfig(init_overhead=8))
        assert taxed.cycles >= free.cycles

    def test_spawn_cost_and_commit_latency_cost_cycles(self, loop_trace):
        pairs = _loop_pairs(loop_trace)
        free = simulate(loop_trace, pairs, ProcessorConfig())
        taxed = simulate(
            loop_trace, pairs, ProcessorConfig(spawn_cost=3, commit_latency=4)
        )
        assert taxed.cycles > free.cycles


class TestRuntimePolicies:
    def test_min_size_removal_fires_on_tiny_pairs(self, loop_trace):
        head = min(loop_trace.program.loop_heads())
        positions = loop_trace.positions_of(head)
        distance = positions[1] - positions[0]
        pairs = _loop_pairs(loop_trace)
        stats = simulate(
            loop_trace,
            pairs,
            ProcessorConfig(min_thread_size=distance * 3, removal_cycles=10_000),
        )
        assert stats.pairs_removed_min_size >= 1

    def test_reassign_uses_alternatives(self, small_traces):
        trace = small_traces["vortex"]
        pairs = select_profile_pairs(trace)
        stats = simulate(
            trace,
            pairs,
            ProcessorConfig(reassign=True, spawn_order_check="none"),
        )
        # fallbacks may legitimately be zero, but the policy must not crash
        assert stats.reassign_fallbacks >= 0

    def test_removal_counts_reported(self, small_traces):
        trace = small_traces["compress"]
        pairs = select_profile_pairs(trace)
        stats = simulate(trace, pairs, ProcessorConfig(removal_cycles=20))
        assert stats.pairs_removed_alone >= 0


class TestAccounting:
    def test_summary_keys(self, loop_trace):
        stats = simulate(loop_trace, _loop_pairs(loop_trace), ProcessorConfig())
        summary = stats.summary()
        for key in ("cycles", "ipc", "threads", "spawns", "avg_active_threads"):
            assert key in summary

    def test_processor_object_reusable_results(self, loop_trace):
        proc = ClusteredProcessor(loop_trace, _loop_pairs(loop_trace), ProcessorConfig())
        stats = proc.run()
        assert stats.cycles > 0
