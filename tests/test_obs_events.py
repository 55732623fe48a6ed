"""Structured-event tests: tracer behaviour, JSONL round-trip, and the
replay-vs-counters parity that makes the stream a trustworthy artifact.

The two load-bearing guarantees:

- tracing disabled is *invisible* — a run holding the null tracer is
  bit-identical (full ``SimulationStats.to_dict``) to a run with no
  tracer argument at all, on both simulator cores;
- tracing enabled is *exact* — :func:`repro.obs.replay_counters` over
  the stream reproduces the headline counters, fault counters included.
"""

import pytest

from repro.cmt import ProcessorConfig, simulate
from repro.faults import (
    FaultInjector,
    FaultPlan,
    ForwardDelayFault,
    LiveinCorruptionFault,
    SpawnDropFault,
    TUBlackoutFault,
)
from repro.obs import (
    BULK_KINDS,
    EVENT_KINDS,
    EventTracer,
    NULL_TRACER,
    NullTracer,
    SimEvent,
    events_from_jsonl,
    replay_counters,
)
from repro.obs.events import (
    EV_SPAWN_RETRY,
    EV_THREAD_COMMIT,
    EV_THREAD_SPAWN,
    EV_THREAD_START,
)
from repro.spawning import select_profile_pairs


#: Dense fault plan for short test traces (the default blackout slots
#: are longer than the whole run); exercises every fault counter.
FAULTY_PLAN = FaultPlan(
    seed=7,
    tu_blackout=TUBlackoutFault(rate=0.6, duration=120, slot_cycles=200),
    spawn_drop=SpawnDropFault(rate=0.5),
    livein_corruption=LiveinCorruptionFault(rate=0.5),
    forward_delay=ForwardDelayFault(rate=0.5, delay=8),
)


def _pairs(trace):
    return select_profile_pairs(trace)


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.emit("thread.spawn", 10, tu=1, thread=2, pc=0x40)
        assert tracer.events == []

    def test_shared_instance(self):
        assert NULL_TRACER.enabled is False
        assert len(NULL_TRACER.events) == 0


class TestEventTracer:
    def test_records_in_order(self):
        tracer = EventTracer()
        tracer.emit(EV_THREAD_START, 0, tu=0, thread=0)
        tracer.emit(EV_THREAD_SPAWN, 5, tu=1, thread=1, sp=0x10)
        assert len(tracer) == 2
        assert tracer.events[0].kind == EV_THREAD_START
        assert tracer.events[1].attrs["sp"] == 0x10

    def test_unknown_kind_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown event kinds"):
            EventTracer(kinds=["thread.spawn", "thread.teleport"])

    def test_kind_filter_drops_at_emission(self):
        tracer = EventTracer(kinds=[EV_THREAD_SPAWN])
        tracer.emit(EV_THREAD_SPAWN, 1)
        tracer.emit(EV_THREAD_COMMIT, 2)
        assert tracer.counts() == {EV_THREAD_SPAWN: 1}

    def test_counts_and_select(self):
        tracer = EventTracer()
        tracer.emit(EV_THREAD_SPAWN, 1, thread=1)
        tracer.emit(EV_THREAD_SPAWN, 2, thread=2)
        tracer.emit(EV_THREAD_COMMIT, 3, thread=1)
        assert tracer.counts() == {EV_THREAD_SPAWN: 2, EV_THREAD_COMMIT: 1}
        spawns = tracer.select(EV_THREAD_SPAWN)
        assert [e.thread for e in spawns] == [1, 2]

    def test_jsonl_round_trip(self):
        tracer = EventTracer()
        tracer.emit(EV_THREAD_SPAWN, 4, tu=2, thread=1, sp=64, cqip=96)
        tracer.emit(EV_SPAWN_RETRY, 9, tu=3, retries=2)
        restored = events_from_jsonl(tracer.to_jsonl())
        assert restored == tracer.events

    def test_jsonl_tolerates_blank_lines(self):
        tracer = EventTracer()
        tracer.emit(EV_THREAD_COMMIT, 7, thread=0)
        text = "\n" + tracer.to_jsonl() + "\n\n"
        assert events_from_jsonl(text) == tracer.events

    def test_taxonomy_is_closed(self):
        assert BULK_KINDS < EVENT_KINDS
        assert all("." in kind for kind in EVENT_KINDS)


class TestSimEvent:
    def test_defaults_and_dict_view(self):
        event = SimEvent("thread.squash", 12)
        assert event.tu == -1 and event.thread == -1
        view = event.to_dict()
        assert view == {
            "kind": "thread.squash", "cycle": 12, "tu": -1, "thread": -1,
            "attrs": {},
        }


def _assert_replay_matches(stats, tracer):
    replay = replay_counters(tracer.events)
    assert replay["spawns"] == stats.spawns
    assert replay["threads_committed"] == stats.threads_committed
    assert replay["threads_degraded"] == stats.threads_degraded
    assert replay["spawns_dropped"] == stats.spawns_dropped
    assert replay["spawns_retried"] == stats.spawns_retried
    assert replay["tu_blackouts"] == stats.tu_blackouts
    assert replay["control_misspeculations"] == stats.control_misspeculations
    assert replay["liveins_corrupted"] == stats.liveins_corrupted
    assert replay["forward_delays"] == stats.forward_delays
    assert replay["predict_hits"] == stats.value_hits
    assert replay["predict_misses"] == (
        stats.value_predictions - stats.value_hits
    )


class TestReplayParity:
    """The round-trip contract: events replay to the exact counters."""

    def test_faultless_run(self, small_traces):
        trace = small_traces["compress"]
        tracer = EventTracer()
        stats = simulate(
            trace, _pairs(trace),
            ProcessorConfig(value_predictor="stride"), tracer=tracer,
        )
        assert stats.spawns > 0 and len(tracer) > 0
        _assert_replay_matches(stats, tracer)

    def test_faulty_run(self, small_traces):
        trace = small_traces["ijpeg"]
        tracer = EventTracer()
        # Realistic predictor: the perfect oracle emits predict.hit for
        # free register-file copies it does not count as predictions.
        stats = simulate(
            trace, _pairs(trace),
            ProcessorConfig(value_predictor="stride"),
            FaultInjector(FAULTY_PLAN), tracer=tracer,
        )
        assert stats.faults_injected > 0
        _assert_replay_matches(stats, tracer)

    def test_jsonl_preserves_replay(self, small_traces):
        trace = small_traces["vortex"]
        tracer = EventTracer()
        stats = simulate(trace, _pairs(trace), ProcessorConfig(),
                         tracer=tracer)
        restored = events_from_jsonl(tracer.to_jsonl())
        assert replay_counters(restored) == replay_counters(tracer.events)
        assert replay_counters(restored)["spawns"] == stats.spawns


class TestDisabledIsInvisible:
    """Tracing off must be bit-identical to no tracing at all."""

    @pytest.mark.parametrize("core", ["event", "legacy"])
    def test_stats_bit_identical(self, small_traces, core):
        trace = small_traces["m88ksim"]
        pairs = _pairs(trace)
        config = ProcessorConfig(collect_timeline=True).with_(sim_core=core)
        plain = simulate(trace, pairs, config)
        nulled = simulate(trace, pairs, config, tracer=NullTracer())
        traced = simulate(trace, pairs, config, tracer=EventTracer())
        assert plain.to_dict() == nulled.to_dict()
        assert plain.to_dict() == traced.to_dict()
