"""Event vs legacy simulator cores: bit-identical statistics.

The event-driven batch-advance core (``ProcessorConfig.sim_core ==
"event"``, the default) is a pure performance rewrite of the hot loop;
these tests pin the contract that it never changes a single counter
relative to the legacy dict-based core — across value predictors,
spawning policies, removal policies, and under fault injection — and
that its clock jumps stay observationally invisible at the watchdog
boundaries.
"""

import gc

import pytest

from repro.cmt import ProcessorConfig, simulate
from repro.cmt.processor import ClusteredProcessor
from repro.errors import InvariantViolation, SimulationTimeout
from repro.experiments import framework
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LiveinCorruptionFault,
    TUBlackoutFault,
)
from repro.obs.events import EventTracer
from repro.spawning import (
    HeuristicConfig,
    SpawnPairSet,
    heuristic_pairs,
    select_profile_pairs,
)
from repro.workloads import workload_names


CORES = ("legacy", "event")


def _pairs(trace, policy="profile"):
    if policy == "heuristics":
        return heuristic_pairs(trace, HeuristicConfig())
    return select_profile_pairs(trace)


def _all_cores(
    trace, pairs, injector_factory=None, base=None, traced=False, **overrides
):
    """Run every core on one point; returns their full stats dicts.

    With ``traced`` each core records its event stream, and each result
    is a ``(stats dict, event dicts)`` pair.
    """
    results = []
    for core in CORES:
        config = (base or ProcessorConfig()).with_(sim_core=core, **overrides)
        injector = injector_factory() if injector_factory else None
        tracer = EventTracer() if traced else None
        stats = simulate(trace, pairs, config, injector, tracer).to_dict()
        if traced:
            results.append((stats, [e.to_dict() for e in tracer.events]))
        else:
            results.append(stats)
    return results


def _assert_equal(results):
    legacy = results[0]
    for core, stats in zip(CORES[1:], results[1:]):
        assert stats == legacy, f"{core} diverged from legacy"


class TestConfig:
    def test_default_core_is_event(self):
        assert ProcessorConfig().sim_core == "event"

    def test_rejects_unknown_core(self):
        with pytest.raises(ValueError):
            ProcessorConfig(sim_core="vectorized")
        with pytest.raises(ValueError):
            ProcessorConfig(sim_core="columnar")  # removed core

    def test_with_preserves_core(self):
        config = ProcessorConfig(sim_core="legacy")
        assert config.with_(issue_width=2).sim_core == "legacy"

    def test_event_core_accepted(self):
        assert ProcessorConfig(sim_core="event").sim_core == "event"


class TestEquivalence:
    @pytest.mark.parametrize("vp", ["perfect", "stride", "fcm", "last", "none"])
    def test_loop_trace_all_predictors(self, loop_trace, vp):
        _assert_equal(
            _all_cores(loop_trace, _pairs(loop_trace), value_predictor=vp)
        )

    def test_serial_trace(self, serial_trace):
        _assert_equal(_all_cores(serial_trace, _pairs(serial_trace)))

    @pytest.mark.parametrize("name", ["compress", "vortex", "m88ksim"])
    @pytest.mark.parametrize("policy", ["profile", "heuristics"])
    def test_workloads_both_policies(self, small_traces, name, policy):
        trace = small_traces[name]
        _assert_equal(
            _all_cores(trace, _pairs(trace, policy), value_predictor="stride")
        )

    def test_single_threaded_baseline(self, loop_trace):
        _assert_equal(
            _all_cores(loop_trace, SpawnPairSet([]), num_thread_units=1)
        )

    def test_removal_policies(self, small_traces):
        trace = small_traces["ijpeg"]
        _assert_equal(
            _all_cores(
                trace,
                _pairs(trace),
                removal_cycles=24,
                removal_occurrences=2,
                min_thread_size=8,
            )
        )

    def test_collect_timeline(self, loop_trace):
        _assert_equal(
            _all_cores(loop_trace, _pairs(loop_trace), collect_timeline=True)
        )

    def test_under_fault_injection(self, small_traces):
        # The event core books through the ring-buffer issue tracker
        # under fault injection too (the legacy core keeps the dict
        # tracker) and degrades to poll parking; the deterministic plan
        # must still produce identical stats.
        trace = small_traces["compress"]
        plan = FaultPlan(
            seed=7,
            tu_blackout=TUBlackoutFault(rate=0.6, duration=120,
                                        slot_cycles=200),
        )
        _assert_equal(
            _all_cores(
                trace,
                _pairs(trace),
                injector_factory=lambda: FaultInjector(plan),
            )
        )

    def test_uniform_fault_plan(self, loop_trace):
        plan = FaultPlan.uniform(0.1, seed=3)
        _assert_equal(
            _all_cores(
                loop_trace,
                _pairs(loop_trace),
                injector_factory=lambda: FaultInjector(plan),
            )
        )

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("vp", ["perfect", "none", "last", "stride", "fcm"])
    @pytest.mark.parametrize("name", ["ijpeg", "vortex"])
    def test_traced_event_streams(self, small_traces, name, vp, corrupt):
        # Live-in prediction emits one event per live-in (copy, hit,
        # miss, sync, corruption) and L1 misses emit cache installs, so
        # equal streams pin both cores' discovery order, not just the
        # counters.
        trace = small_traces[name]
        factory = None
        if corrupt:
            plan = FaultPlan(
                seed=5, livein_corruption=LiveinCorruptionFault(rate=0.4)
            )
            factory = lambda: FaultInjector(plan)  # noqa: E731
        results = _all_cores(
            trace, _pairs(trace), factory, traced=True, value_predictor=vp
        )
        stats, events = results[0]
        assert events, "the traced run emitted no events"
        if corrupt and vp != "none":  # "none" predicts no live-in to corrupt
            assert stats["liveins_corrupted"] > 0
        _assert_equal(results)

    def test_traced_event_streams_bimodal(self, small_traces):
        trace = small_traces["ijpeg"]
        _assert_equal(
            _all_cores(
                trace,
                _pairs(trace),
                traced=True,
                branch_predictor="bimodal",
                value_predictor="stride",
            )
        )


#: Scale of the paper-grid comparison: small enough for tier-1, large
#: enough that every workload spawns under both pair schemes.
GRID_SCALE = 0.12


def _grid_point(name, policy, predictor, injector_factory=None, **overrides):
    """Every core on one paper-grid point, built as the sweeps build it."""
    return _all_cores(
        framework.trace_for(name, GRID_SCALE),
        framework.pair_set_for(name, policy, GRID_SCALE),
        injector_factory,
        base=framework.EXPERIMENT_CONFIG,
        value_predictor=predictor,
        **overrides,
    )


class TestPaperGrid:
    """The paper grid (8 workloads x pair scheme x predictor) under the
    sweep's own processor config, plus one fault-injected point."""

    @pytest.mark.parametrize("predictor", ["perfect", "stride", "fcm"])
    @pytest.mark.parametrize("policy", ["profile", "heuristics"])
    @pytest.mark.parametrize("name", workload_names())
    def test_cores_agree(self, name, policy, predictor):
        _assert_equal(_grid_point(name, policy, predictor))

    def test_cores_agree_under_tu_blackouts(self):
        plan = FaultPlan(
            seed=7,
            tu_blackout=TUBlackoutFault(rate=0.5, duration=120,
                                        slot_cycles=200),
        )
        _assert_equal(_grid_point("go", "profile", "stride",
                                  lambda: FaultInjector(plan)))

    @pytest.mark.parametrize(
        "name, policy",
        [("gcc", "profile"), ("li", "profile"), ("vortex", "heuristics")],
    )
    def test_cores_agree_when_removed_pairs_revive(self, name, policy):
        # A pair removed for its size revives once enough cycles pass: a
        # function of the clock, not of any event, so a spawn-PC poller
        # must keep polling rather than sleep on a memoized outcome.
        _assert_equal(_grid_point(name, policy, "stride", min_thread_size=32,
                                  removal_revival_cycles=100))


class TestReferenceCycles:
    def test_runs_leave_no_cyclic_garbage(self, small_traces):
        # A finished simulation must be freed by reference counting
        # alone: trace builds run with the cyclic collector off, so a
        # processor left in a cycle (its completion list, issue rings
        # and caches) would outlive the next build and raise peak RSS.
        trace = small_traces["ijpeg"]
        pairs = _pairs(trace)
        plan = FaultPlan.uniform(0.1, seed=3)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for core in CORES:
                config = ProcessorConfig(sim_core=core, value_predictor="fcm")
                simulate(trace, pairs, config)
                simulate(
                    trace, pairs, config, FaultInjector(plan), EventTracer()
                )
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestEventEdgeCases:
    """Clock-jump edges: watchdog boundaries, blackouts in dead spans,
    and the empty-heap livelock check."""

    def test_budget_boundary_at_wakeup(self, loop_trace):
        # A cycle budget equal to the run's final cycle count sits at or
        # beyond every wakeup the event core jumps to, so all cores must
        # complete — a jump that lands exactly on the boundary is legal
        # (the watchdog fires strictly above the budget).
        pairs = _pairs(loop_trace)
        full = simulate(
            loop_trace, pairs, ProcessorConfig(sim_core="event")
        ).to_dict()
        _assert_equal(
            _all_cores(loop_trace, pairs, cycle_budget=full["cycles"])
        )

    def test_budget_exceeded_raises_in_every_core(self, loop_trace):
        pairs = _pairs(loop_trace)
        full = simulate(
            loop_trace, pairs, ProcessorConfig(sim_core="event")
        ).to_dict()
        budget = max(full["cycles"] // 2, 1)
        for core in CORES:
            with pytest.raises(SimulationTimeout):
                simulate(
                    loop_trace,
                    pairs,
                    ProcessorConfig(sim_core=core, cycle_budget=budget),
                )

    def test_blackout_inside_skipped_span(self, loop_trace):
        # Healthy event-core runs of this trace jump dead spans; a
        # blackout plan whose windows land inside those spans must be
        # honoured identically by all cores (the injector leg re-checks
        # darkness on every poll, so the event core never jumps over an
        # active blackout).
        pairs = _pairs(loop_trace)
        metrics_probe = ClusteredProcessor(
            loop_trace, pairs, ProcessorConfig(sim_core="event")
        )
        metrics_probe.run()
        assert metrics_probe.event_metrics["cycles_skipped"] > 0
        plan = FaultPlan(
            seed=11,
            tu_blackout=TUBlackoutFault(rate=1.0, duration=64,
                                        slot_cycles=128),
        )
        _assert_equal(
            _all_cores(
                loop_trace,
                pairs,
                injector_factory=lambda: FaultInjector(plan),
            )
        )

    def test_empty_heap_livelock_detected(self, loop_trace, monkeypatch):
        # If the wakeup heap drains while threads are unfinished (a wait
        # no completion can break), the event core must report livelock
        # immediately instead of spinning the zero-progress counter.
        proc = ClusteredProcessor(
            loop_trace, SpawnPairSet([]), ProcessorConfig(sim_core="event")
        )
        monkeypatch.setattr(proc, "_push", lambda thread: None)
        with pytest.raises(InvariantViolation, match="heap empty"):
            proc.run()

    def test_event_metrics_populated(self, loop_trace):
        proc = ClusteredProcessor(
            loop_trace, _pairs(loop_trace), ProcessorConfig(sim_core="event")
        )
        proc.run()
        metrics = proc.event_metrics
        assert metrics["sim_core"] == "event"
        assert metrics["events_processed"] > 0
        assert set(metrics["wakeups"]) == {
            "advance", "waiter", "park_poll", "sleeper"
        }
        assert metrics["replayed_polls"] >= 0
        # The ticking legacy core leaves no event metrics behind.
        ticking = ClusteredProcessor(
            loop_trace, _pairs(loop_trace), ProcessorConfig(sim_core="legacy")
        )
        ticking.run()
        assert ticking.event_metrics is None
