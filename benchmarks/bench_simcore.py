"""Full-scale simulator-core gate: the event core against the legacy oracle.

Times the paper grid at scale 1.0 under each core: per workload, one
single-thread-unit baseline plus {profile, heuristics} x {perfect,
stride, fcm}, 56 points in all.  Traces (which carry their columns
from the executor), pair sets and priming sequences are built first, so
only simulation is timed, and each core sweeps the grid twice and keeps
its faster pass.  The event core runs the sweeps' cached path: each
trace after the ``trace`` artifact codec's round trip through disk,
and for its stride and fcm points priming sequences that went through
the ``prime`` codec; the legacy core runs on the executed traces and
derives its own priming with its oracle.
The gate: every trace's executor-built columns equal the reference
derivation ``TraceColumns.build``, full ``SimulationStats`` are equal on
every point and on one fault-injected point, and the event core is at
least ``SIMCORE_SPEEDUP_TARGET`` times faster than legacy.
Writes no file outside pytest's temporary directory; run it with::

    PYTHONPATH=src python -m pytest benchmarks/bench_simcore.py -q -s
"""

import time

from repro.cache import ArtifactCache
from repro.cmt import priming_sequence, simulate
from repro.exec.columns import TraceColumns
from repro.experiments import framework
from repro.faults import FaultInjector, FaultPlan, TUBlackoutFault
from repro.spawning import SpawnPairSet
from repro.workloads import workload_names

#: Minimum legacy seconds / event seconds over the full-scale grid.
SIMCORE_SPEEDUP_TARGET = 4.0

SCALE = 1.0
POLICIES = ("profile", "heuristics")
PREDICTORS = ("perfect", "stride", "fcm")


def _decoded(cache_dir, kind, label, value):
    """``value`` after the ``kind`` codec's round trip through disk."""
    cache = ArtifactCache(cache_dir)
    key = cache.key(kind, label=label)
    cache.store(kind, key, value)
    decoded = ArtifactCache(cache_dir).lookup(kind, key)
    assert decoded is not value
    return decoded


def _grid(cache_dir):
    """``(label, trace, decoded, pairs, config, training)`` for the 56
    grid points.

    ``decoded`` is ``trace`` read back through the ``trace`` codec, and
    ``training`` the decoded priming sequence of a point that primes a
    table predictor, else None.
    """
    base = framework.EXPERIMENT_CONFIG
    points = []
    for name in workload_names():
        trace = framework.trace_for(name, SCALE)
        # Full-scale differential check of the one-pass trace build.
        assert trace.columns == TraceColumns.build(trace), name
        decoded = _decoded(cache_dir, "trace", name, trace)
        points.append((f"{name}/baseline", trace, decoded, SpawnPairSet([]),
                       base.single_threaded(), None))
        for policy in POLICIES:
            pairs = framework.pair_set_for(name, policy, SCALE)
            training = _decoded(
                cache_dir, "prime", f"{name}/{policy}",
                priming_sequence(trace, pairs, base),
            )
            for predictor in PREDICTORS:
                config = base.with_(value_predictor=predictor)
                points.append((
                    f"{name}/{policy}/{predictor}", trace, decoded, pairs,
                    config, training if config.primes_predictor else None,
                ))
    return points


def _sweep(points, core):
    """Best of two passes; returns (seconds, instructions, stats by label).

    The event core simulates the decoded traces, the legacy core the
    executed ones; the legacy core never reads a passed priming sequence.
    """
    best = float("inf")
    for _ in range(2):
        stats = {}
        start = time.perf_counter()
        for label, trace, decoded, pairs, config, training in points:
            stats[label] = simulate(decoded if core == "event" else trace,
                                    pairs, config.with_(sim_core=core),
                                    training=training)
        best = min(best, time.perf_counter() - start)
    instructions = sum(s.instructions for s in stats.values())
    return best, instructions, {k: s.to_dict() for k, s in stats.items()}


def test_event_core_matches_legacy_and_clears_speedup_target(tmp_path):
    points = _grid(tmp_path)
    legacy_s, instructions, legacy = _sweep(points, "legacy")
    event_s, _, event = _sweep(points, "event")
    assert [k for k in legacy if event[k] != legacy[k]] == []

    plan = FaultPlan(seed=7, tu_blackout=TUBlackoutFault(
        rate=0.5, duration=120, slot_cycles=200))
    trace = framework.trace_for("go", SCALE)
    pairs = framework.pair_set_for("go", "profile", SCALE)
    config = framework.EXPERIMENT_CONFIG.with_(value_predictor="stride")
    legacy_f, event_f = (
        simulate(trace, pairs, config.with_(sim_core=core),
                 FaultInjector(plan)).to_dict()
        for core in ("legacy", "event")
    )
    assert event_f == legacy_f

    speedup = legacy_s / event_s
    summary = (
        f"legacy {legacy_s:.2f}s ({instructions / legacy_s:,.0f} insts/s), "
        f"event {event_s:.2f}s ({instructions / event_s:,.0f} insts/s), "
        f"{speedup:.2f}x (target {SIMCORE_SPEEDUP_TARGET}x)"
    )
    print(summary)
    assert speedup >= SIMCORE_SPEEDUP_TARGET, summary
