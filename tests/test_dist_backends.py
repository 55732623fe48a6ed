"""Executor-backend tests: serial/process equivalence.

The contract under test: whatever order a backend dispatches the
points in, the result map is identical to the serial reference — same
keys, same input order, same outcome values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.backend import (
    ProcessBackend,
    SerialBackend,
    backend_names,
    create_backend,
)
from repro.experiments.engine import ParallelEngine, Point

BACKENDS = ("serial", "process")


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
