"""Executor-backend tests: serial/process equivalence, job processes.

The contract under test: whatever order a backend dispatches the
points in, the result map is identical to the serial reference — same
keys, same input order, same outcome values.  The ``process`` backend's
job processes must also survive a kill, die with their parent, stop
with the sweep and enforce timeouts by hard kill.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.backend import (
    ProcessBackend,
    SerialBackend,
    backend_names,
    create_backend,
)
from repro.experiments.engine import ParallelEngine, Point, run_figure

BACKENDS = ("serial", "process")
SRC = Path(__file__).resolve().parents[1] / "src"
needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)


def _state_and_ppid(pid):
    """``(state, ppid)`` of a process from /proc (None once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]  # comm may hold ")"
    return state, int(ppid)


def _children(pid):
    """Live (not zombie) child pids of ``pid``."""
    found = set()
    for entry in Path("/proc").glob("[0-9]*"):
        info = _state_and_ppid(entry.name)
        if info is not None and info[0] != "Z" and info[1] == pid:
            found.add(int(entry.name))
    return found


def _alive(pid):
    info = _state_and_ppid(pid)
    return info is not None and info[0] != "Z"


def _sleep_points(durations, fail_at=()):
    """A heterogeneous sleep grid: one point per duration."""
    return [
        Point(
            key=f"p{i:02d}",
            runner="sleep",
            params={
                "duration": float(d),
                "tag": f"p{i:02d}",
                "fail": "transient" if i in fail_at else None,
            },
        )
        for i, d in enumerate(durations)
    ]


def _run(backend, points, workers=3):
    engine = ParallelEngine(jobs=workers, backend=backend, retries=0)
    results = engine.run(points)
    return {key: (o.ok, o.value) for key, o in results.items()}, engine


def test_backends_equal_on_twelve_point_grid():
    # Twelve points with uneven costs so completion order varies.
    durations = [0.002 * ((i * 7) % 5) for i in range(12)]
    points = _sleep_points(durations, fail_at=(5,))
    reference, _ = _run("serial", points, workers=1)
    outcomes, engine = _run("process", points)
    assert outcomes == reference
    # Deterministic input order regardless of completion order.
    assert list(outcomes) == [p.key for p in points]
    assert engine.backend_name == "process"


def test_failures_travel_inside_outcomes():
    points = _sleep_points([0.0, 0.0], fail_at=(1,))
    for name in BACKENDS:
        outcomes, _ = _run(name, points)
        assert outcomes["p00"][0] is True
        assert outcomes["p01"][0] is False, name  # failed, not raised


@pytest.mark.parametrize("name", BACKENDS)
def test_poison_point_is_not_retried(name):
    point = Point(key="bad", runner="sleep",
                  params={"duration": 0.0, "fail": "poison"})
    engine = ParallelEngine(jobs=2, backend=name, retries=2, backoff=0.0)
    outcome = engine.run([point])["bad"]
    assert outcome.ok is False
    assert outcome.attempts == 1
    assert outcome.error_type == "InvariantViolation"


def test_checkpoint_prefilter_skips_completed_points():
    points = _sleep_points([0.001] * 6)
    engine = ParallelEngine(jobs=2, backend="process")
    first = engine.run(points[:4])
    assert all(o.ok for o in first.values())


def test_backend_registry():
    assert set(backend_names()) == {"serial", "process", "remote"}
    assert isinstance(create_backend("serial"), SerialBackend)
    assert isinstance(create_backend("process"), ProcessBackend)
    for name in ("carrier-pigeon", "async-local"):
        with pytest.raises(KeyError):
            create_backend(name)
    with pytest.raises(TypeError):
        create_backend("process", workers=3)


@given(
    durations=st.lists(
        st.floats(min_value=0.0, max_value=0.004),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=5, deadline=None)
def test_property_stealing_order_never_changes_results(durations):
    """Random heterogeneous grids: the process backend's result map
    equals the serial reference bit-for-bit, whatever the completion
    order."""
    points = _sleep_points(durations)
    reference, _ = _run("serial", points, workers=1)
    fanned, _ = _run("process", points, workers=3)
    assert fanned == reference
    assert list(fanned) == [p.key for p in points]


def test_a_sweep_worker_keeps_its_memo(tmp_path):
    # One artifact cache for the worker's life: later points read what
    # earlier ones built from memory, exactly as the serial engine does.
    events = {}
    for name in BACKENDS:
        engine = ParallelEngine(
            jobs=1, backend=name, cache_dir=tmp_path / name
        )
        run_figure("figure8", 0.05, engine)
        events[name] = engine.cache_events
    assert events["process"] == events["serial"]
    assert events["process"]["memory_hits"] > 0
    assert events["process"]["disk_hits"] == 0


def test_a_timed_out_point_is_killed_and_retried():
    points = [
        Point("slow", "sleep", {"duration": 5.0}),
        Point("next", "sleep", {"duration": 0.01}),
    ]
    engine = ParallelEngine(
        jobs=1, backend="process", timeout=0.3, retries=1, backoff=0.0
    )
    started = time.monotonic()
    results = engine.run(points)
    assert time.monotonic() - started < 2.5
    slow = results["slow"]
    assert (slow.ok, slow.error_type, slow.attempts) == (
        False, "SimulationTimeout", 2
    )
    assert results["next"].ok and results["next"].attempts == 1
    assert results["next"].value == {"slept": 0.01, "tag": None}


@needs_proc
def test_a_killed_job_process_costs_its_point_one_retry():
    points = _sleep_points([0.6] * 4)
    reference, _ = _run("serial", points, workers=1)
    before = _children(os.getpid())
    killed = []

    def kill_one_job_process():
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            forked = _children(os.getpid()) - before
            if forked:
                time.sleep(0.2)  # mid-point
                killed.append(min(forked))
                os.kill(killed[0], signal.SIGKILL)
                return
            time.sleep(0.01)

    killer = threading.Thread(target=kill_one_job_process)
    killer.start()
    engine = ParallelEngine(jobs=2, backend="process", backoff=0.0)
    results = engine.run(points)
    killer.join(timeout=15.0)
    assert not killer.is_alive() and killed
    assert {k: (o.ok, o.value) for k, o in results.items()} == reference
    assert sorted(o.attempts for o in results.values()) == [1, 1, 1, 2]


@needs_proc
def test_job_processes_exit_once_the_sweep_parent_is_killed():
    # One job process sits idle while its point waits out a long retry
    # backoff; the other is 3 s into a point when the parent dies.
    busy = 3.0
    script = (
        "from repro.experiments.engine import ParallelEngine, Point\n"
        "points = [Point('idle', 'sleep', {'fail': 'transient'}),\n"
        f"          Point('busy', 'sleep', {{'duration': {busy}}})]\n"
        "ParallelEngine(jobs=2, backend='process', backoff=60).run(points)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 30.0
        while len(_children(parent.pid)) < 2:
            assert time.monotonic() < deadline, "no job processes forked"
            time.sleep(0.02)
        job_processes = _children(parent.pid)
        time.sleep(0.3)  # mid-point
    finally:
        parent.kill()
        parent.wait()
    killed_at = time.monotonic()
    while sum(_alive(pid) for pid in job_processes) > 1:
        assert time.monotonic() - killed_at < 2.0, (
            "an idle job process outlived its parent"
        )
        time.sleep(0.05)
    while any(_alive(pid) for pid in job_processes):
        assert time.monotonic() - killed_at < busy + 2.0, (
            "a busy job process outlived its point"
        )
        time.sleep(0.05)


@needs_proc
def test_an_exception_from_progress_stops_the_sweep_at_once():
    class Stop(Exception):
        pass

    def progress(key, outcome, resumed):
        raise Stop(key)

    before = _children(os.getpid())
    engine = ParallelEngine(jobs=2, backend="process")
    started = time.monotonic()
    with pytest.raises(Stop):
        engine.run(_sleep_points([1.0] * 8), progress=progress)
    assert time.monotonic() - started < 2.0
    assert _children(os.getpid()) <= before


def test_more_workers_than_cores_run_every_point_once():
    points = _sleep_points([0.0] * 40)
    reference, _ = _run("serial", points, workers=1)
    landed = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        engine = ParallelEngine(jobs=4, backend="process", retries=0)
        results = engine.run(
            points, progress=lambda key, outcome, resumed: landed.append(key)
        )
    finally:
        sys.setswitchinterval(interval)
    assert sorted(landed) == [p.key for p in points]
    assert {k: (o.ok, o.value) for k, o in results.items()} == reference
    assert set(engine._worker_ids.values()) <= {
        f"process-{index}" for index in range(4)
    }
