"""Fault-injection subsystem tests: plans, determinism, degradation.

The two load-bearing guarantees:

- a zero-rate plan is *inert* — attaching it changes nothing, down to
  dataclass equality of the full statistics;
- a faulty run still commits exactly the sequential instruction stream
  (graceful degradation changes timing, never results).
"""

import json

import pytest

from repro.cmt import ProcessorConfig, simulate
from repro.cmt.processor import ClusteredProcessor
from repro.errors import (
    ExecutionError,
    InvariantViolation,
    SimulationError,
    SimulationTimeout,
    WorkloadError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    ForwardDelayFault,
    LiveinCorruptionFault,
    SpawnDropFault,
    TUBlackoutFault,
)
from repro.spawning import ProfilePolicyConfig, select_profile_pairs

POLICY = ProfilePolicyConfig(coverage=0.99, max_distance=4096)

#: Dense blackout schedule — test traces run a few hundred cycles, so the
#: default 1000-cycle slots would rarely fire inside them.
AGGRESSIVE_BLACKOUT = TUBlackoutFault(rate=0.6, duration=120, slot_cycles=200)


def _pairs(trace):
    return select_profile_pairs(trace, POLICY)


def _run(trace, plan=None, **config_overrides):
    config = ProcessorConfig().with_(**config_overrides)
    injector = None if plan is None else FaultInjector(plan)
    return simulate(trace, _pairs(trace), config, injector)


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TUBlackoutFault(rate=1.5)
        with pytest.raises(ValueError):
            SpawnDropFault(rate=-0.1)
        with pytest.raises(ValueError):
            ForwardDelayFault(rate=0.5, delay=-1)

    def test_is_zero(self):
        assert FaultPlan().is_zero
        assert FaultPlan.uniform(0.0).is_zero
        assert not FaultPlan.uniform(0.1).is_zero
        assert not FaultPlan(spawn_drop=SpawnDropFault(rate=0.2)).is_zero

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            tu_blackout=TUBlackoutFault(rate=0.3, duration=99),
            spawn_drop=SpawnDropFault(rate=0.2, max_retries=5),
            livein_corruption=LiveinCorruptionFault(rate=0.1),
            forward_delay=ForwardDelayFault(rate=0.05, delay=7),
        )
        data = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(data) == plan

    def test_with_seed(self):
        plan = FaultPlan.uniform(0.1, seed=1)
        assert plan.with_seed(2).seed == 2
        assert plan.with_seed(2).tu_blackout == plan.tu_blackout


class TestZeroRateIdentity:
    """An all-zero plan must be indistinguishable from no injector."""

    @pytest.mark.parametrize("name", ["compress", "vortex", "ijpeg", "m88ksim"])
    def test_stats_identical(self, small_traces, name):
        trace = small_traces[name]
        plain = _run(trace, plan=None, collect_timeline=True)
        inert = _run(trace, plan=FaultPlan.uniform(0.0), collect_timeline=True)
        assert plain == inert  # full dataclass equality, timeline included


class TestDeterminism:
    def test_same_seed_bit_identical(self, small_traces):
        trace = small_traces["vortex"]
        plan = FaultPlan(seed=7, tu_blackout=AGGRESSIVE_BLACKOUT,
                         spawn_drop=SpawnDropFault(rate=0.3),
                         livein_corruption=LiveinCorruptionFault(rate=0.3),
                         forward_delay=ForwardDelayFault(rate=0.3))
        a = _run(trace, plan, collect_timeline=True)
        b = _run(trace, plan, collect_timeline=True)
        assert a == b

    def test_different_seeds_diverge(self, small_traces):
        trace = small_traces["vortex"]
        plan = FaultPlan(seed=7, tu_blackout=AGGRESSIVE_BLACKOUT)
        other = plan.with_seed(8)
        # Seeds draw different blackout schedules (astronomically unlikely
        # to coincide at this density).
        inj_a, inj_b = FaultInjector(plan), FaultInjector(other)
        assert any(
            inj_a.blackout_windows(tu) != inj_b.blackout_windows(tu)
            for tu in range(16)
        )


class TestBlackoutDegradation:
    def _stats(self, small_traces, name):
        plan = FaultPlan(seed=11, tu_blackout=AGGRESSIVE_BLACKOUT)
        trace = small_traces[name]
        return trace, _run(trace, plan, collect_timeline=True)

    @pytest.mark.parametrize("name", ["compress", "vortex", "ijpeg", "m88ksim"])
    def test_stream_preserved(self, small_traces, name):
        trace, stats = self._stats(small_traces, name)
        assert stats.instructions == len(trace)
        assert sum(stats.thread_sizes) == len(trace)

    @pytest.mark.parametrize("name", ["compress", "vortex"])
    def test_timeline_partitions_trace(self, small_traces, name):
        trace, stats = self._stats(small_traces, name)
        records = sorted(stats.timeline, key=lambda r: r.start_pos)
        pos = 0
        for record in records:
            assert record.start_pos == pos
            pos += record.size
        assert pos == len(trace)

    def test_faults_actually_fire(self, small_traces):
        _, stats = self._stats(small_traces, "vortex")
        assert stats.tu_blackouts > 0
        assert stats.faults_injected >= stats.tu_blackouts
        assert stats.fault_cycles_lost > 0
        # degradation fired at least once (restart or fold)
        assert stats.threads_degraded > 0


class TestSpawnDrops:
    def test_certain_drop_kills_all_spawns(self, small_traces):
        trace = small_traces["ijpeg"]
        plan = FaultPlan(seed=3, spawn_drop=SpawnDropFault(rate=1.0))
        stats = _run(trace, plan)
        assert stats.spawns == 0
        assert stats.spawns_dropped > 0
        assert stats.threads_committed == 1
        assert sum(stats.thread_sizes) == len(trace)

    def test_partial_drop_retries(self, small_traces):
        trace = small_traces["ijpeg"]
        plan = FaultPlan(seed=3, spawn_drop=SpawnDropFault(rate=0.5))
        stats = _run(trace, plan)
        assert stats.spawns_retried > 0
        assert stats.fault_cycles_lost > 0
        assert sum(stats.thread_sizes) == len(trace)


class TestLiveinCorruption:
    def test_certain_corruption_forces_miss_path(self, small_traces):
        trace = small_traces["ijpeg"]
        plan = FaultPlan(seed=5, livein_corruption=LiveinCorruptionFault(rate=1.0))
        clean = _run(trace)
        stats = _run(trace, plan)
        assert stats.liveins_corrupted > 0
        assert sum(stats.thread_sizes) == len(trace)
        # every corrupted live-in pays synchronise+recovery
        assert stats.cycles >= clean.cycles


class TestForwardDelay:
    def test_delay_fires_on_sync_path(self, small_traces):
        trace = small_traces["ijpeg"]
        plan = FaultPlan(seed=9, forward_delay=ForwardDelayFault(rate=1.0, delay=32))
        # value_predictor="none" routes every live-in through forwarding
        clean = _run(trace, value_predictor="none")
        stats = _run(trace, plan, value_predictor="none")
        assert stats.forward_delays > 0
        assert stats.cycles >= clean.cycles
        assert sum(stats.thread_sizes) == len(trace)


class TestWatchdogs:
    def test_cycle_budget_timeout(self, small_traces):
        trace = small_traces["compress"]
        with pytest.raises(SimulationTimeout) as info:
            _run(trace, cycle_budget=10)
        assert "cycle budget exceeded" in str(info.value)
        assert "budget=10" in str(info.value)

    def test_generous_budget_is_invisible(self, small_traces):
        trace = small_traces["compress"]
        free = _run(trace)
        budgeted = _run(trace, cycle_budget=free.cycles * 10)
        assert free == budgeted

    def test_livelock_detector(self, loop_trace, monkeypatch):
        def stuck(self, thread):
            thread.fetch_cycle += 1  # spins without executing anything

        # The legacy loop runs every fetch group through ``_advance``;
        # the event core owns its loop and has its own livelock checks.
        monkeypatch.setattr(ClusteredProcessor, "_advance", stuck)
        proc = ClusteredProcessor(
            loop_trace, _pairs(loop_trace),
            ProcessorConfig(livelock_threshold=64, sim_core="legacy"),
        )
        with pytest.raises(InvariantViolation) as info:
            proc.run()
        assert "livelock" in str(info.value)


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(SimulationTimeout, SimulationError)
        assert issubclass(InvariantViolation, SimulationError)
        assert issubclass(WorkloadError, SimulationError)
        assert issubclass(WorkloadError, ExecutionError)
        assert issubclass(SimulationError, RuntimeError)

    def test_context_rendering(self):
        err = SimulationError("stuck", cycle=12, thread=3, skipped=None)
        assert str(err) == "stuck [cycle=12, thread=3]"
        assert SimulationError("plain").args[0] == "plain"
