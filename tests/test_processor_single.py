"""Single-threaded timing-model tests (the speed-up baseline)."""

import pytest

from repro.cmt import ProcessorConfig, simulate, single_thread_cycles
from repro.exec import run_program
from repro.isa import assemble
from repro.spawning import SpawnPairSet
from repro.workloads import load_trace, workload_names

BASE = ProcessorConfig()


def _single(trace, **overrides):
    config = BASE.single_threaded().with_(**overrides)
    return simulate(trace, SpawnPairSet([]), config)


class TestBounds:
    def test_fetch_width_bounds_ipc(self, loop_trace):
        stats = _single(loop_trace)
        assert stats.cycles >= len(loop_trace) / BASE.fetch_width
        assert stats.instructions == len(loop_trace)

    def test_dependence_chain_bounds_cycles(self, serial_trace):
        # every instruction in the chain depends on its predecessor, so
        # the run can never beat one instruction per cycle on the chain
        stats = _single(serial_trace)
        chained = sum(1 for d in serial_trace if d.srcs)
        assert stats.cycles >= chained

    def test_single_thread_commits_one_thread(self, loop_trace):
        stats = _single(loop_trace)
        assert stats.threads_committed == 1
        assert stats.spawns == 0
        assert stats.thread_sizes == [len(loop_trace)]

    def test_deterministic(self, loop_trace):
        assert _single(loop_trace).cycles == _single(loop_trace).cycles


class TestLatencyEffects:
    def test_higher_miss_latency_slows_execution(self):
        trace = run_program(
            assemble(
                "li r1 0\nli r3 200\nloop: load r2 r1 1000\naddi r1 r1 64\n"
                "blt r1 r3 loop\nhalt"
            )
        )
        fast = _single(trace, l1_miss_latency=8).cycles
        slow = _single(trace, l1_miss_latency=50).cycles
        assert slow > fast

    def test_fp_division_latency_visible(self):
        div = run_program(
            assemble("li r1 7\nfcvt r2 r1\nfdiv r3 r2 r2\nfdiv r3 r3 r2\nhalt")
        )
        add = run_program(
            assemble("li r1 7\nfcvt r2 r1\nfadd r3 r2 r2\nfadd r3 r3 r2\nhalt")
        )
        assert _single(div).cycles > _single(add).cycles

    def test_mispredict_penalty_slows_branchy_code(self):
        # data-dependent branch pattern the predictor cannot learn well
        trace = run_program(
            assemble(
                "li r1 100\nli r4 1\nloop: mul r4 r4 r4\naddi r4 r4 13\n"
                "andi r4 r4 255\nandi r2 r4 1\nbeqz r2 skip\naddi r3 r3 1\n"
                "skip: addi r1 r1 -1\nbnez r1 loop\nhalt"
            )
        )
        cheap = _single(trace, mispredict_penalty=0).cycles
        dear = _single(trace, mispredict_penalty=30).cycles
        assert dear > cheap

    def test_rob_limits_runahead(self):
        # a very long latency instruction followed by many independent ones:
        # with a tiny ROB, fetch must stall behind the divider
        text = "li r1 9\nfcvt r2 r1\nfdiv r3 r2 r2\n" + "addi r4 r4 1\n" * 100 + "halt"
        trace = run_program(assemble(text))
        small = _single(trace, rob_size=8).cycles
        large = _single(trace, rob_size=256).cycles
        assert small >= large

    def test_branch_predictor_stats_populated(self, loop_trace):
        stats = _single(loop_trace)
        assert stats.branch_predictions > 0
        assert 0.0 < stats.branch_hit_rate <= 1.0

    def test_empty_trace(self):
        trace = run_program(assemble("halt"))
        stats = _single(trace)
        assert stats.cycles >= 1
        assert stats.instructions == 1


class TestHelper:
    def test_single_thread_cycles_matches_simulate(self, loop_trace):
        assert single_thread_cycles(loop_trace, BASE) == _single(loop_trace).cycles


class TestPredictorFreeBaseline:
    """A one-unit run spawns no thread, so it never predicts a live-in:
    the value-predictor knobs cannot move its stats.  This is what lets
    ``ProcessorConfig.single_threaded`` share one baseline across
    predictors."""

    @pytest.mark.parametrize("name", workload_names())
    def test_one_unit_stats_equal_across_predictors(self, name):
        trace = load_trace(name, 0.1)
        single = BASE.single_threaded()
        reference = simulate(trace, SpawnPairSet([]), single)
        assert reference.value_predictions == 0
        for predictor in ("none", "last", "stride", "fcm"):
            for prime in (True, False):
                config = single.with_(
                    value_predictor=predictor, prime_value_predictor=prime
                )
                stats = simulate(trace, SpawnPairSet([]), config)
                assert stats.value_predictions == 0
                assert stats == reference, (name, predictor, prime)
