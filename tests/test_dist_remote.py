"""Remote-fleet tests: spawned socket workers, equivalence, kill -9.

Each test spawns real ``repro worker`` subprocesses against an
in-process coordinator, so this is the full wire path: hello, steal,
task, result, heartbeat, requeue-on-death.
"""

import os
import signal
import time

import pytest

from repro.dist.coordinator import RemoteBackend
from repro.dist.worker import parse_endpoint
from repro.experiments.engine import ParallelEngine, Point
from tests.test_engine import _mini_points


def _sleep_points(durations):
    return [
        Point(
            key=f"p{i:02d}",
            runner="sleep",
            params={"duration": float(d), "tag": f"p{i:02d}"},
        )
        for i, d in enumerate(durations)
    ]


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:7341") == ("127.0.0.1", 7341)
    assert parse_endpoint("::1:80") == ("::1", 80)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")
    with pytest.raises(ValueError):
        parse_endpoint(":80")
    with pytest.raises(ValueError):
        parse_endpoint("host:not-a-number")


def test_remote_fleet_matches_serial():
    points = _sleep_points([0.01 * ((i * 3) % 4) for i in range(8)])
    serial = ParallelEngine(jobs=1).run(points)
    engine = ParallelEngine(jobs=2, backend="remote", workers=2)
    remote = engine.run(points)
    assert list(remote) == list(serial)
    assert {k: (o.ok, o.value) for k, o in remote.items()} == {
        k: (o.ok, o.value) for k, o in serial.items()
    }
    fleet = engine.fleet
    assert fleet["tasks"] == 8
    assert fleet["completed"] == 8
    assert fleet["lost"] == 0
    # Both spawned workers actually participated.
    assert set(fleet["dispatched"]) == {"w0", "w1"}
    assert all(count > 0 for count in fleet["dispatched"].values())


def test_remote_simulate_matches_serial_and_warm_fleet_misses_nothing(
    tmp_path,
):
    # Real simulation results and cache blobs over the wire: a cold
    # fleet derives and pushes the artifacts, a fresh fleet on the same
    # cache directory is served every one of them.
    points = _mini_points()
    serial = ParallelEngine(jobs=1, cache_dir=tmp_path / "serial").run(points)
    cache_dir = tmp_path / "shared"
    cold = ParallelEngine(jobs=2, backend="remote", workers=2,
                          cache_dir=cache_dir)
    remote = cold.run(points)
    assert list(remote) == list(serial)
    for key, outcome in serial.items():
        assert outcome.ok and remote[key].ok
        assert remote[key].value == outcome.value
    assert cold.cache_events["puts"] > 0

    warm = ParallelEngine(jobs=2, backend="remote", workers=2,
                          cache_dir=cache_dir)
    again = warm.run(points)
    assert warm.cache_events["misses"] == 0
    assert warm.fleet["cache"]["pulls"] > 0
    assert {k: o.value for k, o in again.items()} == {
        k: o.value for k, o in serial.items()
    }


def test_worker_death_requeues_exactly_once():
    # One long point seeded first (granted to one worker) plus short
    # filler for the other.  When the first short point completes we
    # know who ran it — and SIGKILL the OTHER worker, which is mid-way
    # through the long point, guaranteeing a leased-task requeue.
    points = [
        Point(key="long", runner="sleep", params={"duration": 1.5}),
    ] + _sleep_points([0.05] * 6)
    backend = RemoteBackend(heartbeat=0.3, heartbeat_timeout=2.0)
    engine = ParallelEngine(jobs=2, backend=backend, workers=2)
    state = {"killed": None}

    def kill_the_busy_one(key, outcome, resumed):
        if state["killed"] is None and key != "long":
            emitter = engine._worker_ids.get(key)
            victim = "w1" if emitter == "w0" else "w0"
            proc = backend.processes[int(victim[1:])]
            os.kill(proc.pid, signal.SIGKILL)
            state["killed"] = victim

    outcomes = engine.run(points, progress=kill_the_busy_one)
    assert state["killed"] is not None
    assert all(o.ok for o in outcomes.values())
    fleet = engine.fleet
    assert fleet["tasks"] == 7
    assert fleet["completed"] == 7
    assert fleet["lost"] == 0
    assert fleet["requeues"] >= 1
    assert fleet["duplicate_finishes"] == 0
    # The long point was re-run by the surviving worker.
    survivor = "w0" if state["killed"] == "w1" else "w1"
    assert engine._worker_ids["long"] == survivor


def test_fleet_summary_includes_cache_counters():
    points = _sleep_points([0.01] * 4)
    engine = ParallelEngine(jobs=2, backend="remote", workers=2)
    engine.run(points)
    assert "cache" in engine.fleet
    for field in ("pulls", "pushes", "probe_misses", "rejects"):
        assert field in engine.fleet["cache"]


def test_whole_fleet_death_raises():
    from repro.experiments.framework import ResilientOutcome  # noqa: F401

    points = _sleep_points([5.0] * 2)
    backend = RemoteBackend(heartbeat=0.2, heartbeat_timeout=1.0)
    engine = ParallelEngine(jobs=2, backend=backend, workers=2)

    def kill_everyone():
        deadline = time.time() + 10.0
        while not backend.processes and time.time() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)  # let the workers take their leases
        for proc in backend.processes:
            os.kill(proc.pid, signal.SIGKILL)

    import threading

    killer = threading.Thread(target=kill_everyone)
    killer.start()
    try:
        with pytest.raises(Exception) as excinfo:
            engine.run(points)
        assert "fleet" in str(excinfo.value)
    finally:
        killer.join()
