"""Hardened experiment runner: retries, timeouts, resume from the cache."""

import threading
import time

import pytest

from repro.cache import ArtifactCache
from repro.errors import (
    ExecutionError,
    InvariantViolation,
    JobCancelled,
    SimulationTimeout,
    WorkloadError,
)
from repro.experiments import (
    ParallelEngine,
    ResilientOutcome,
    framework,
    run_resilient,
)
from repro.experiments import engine as engine_mod
from repro.experiments.engine import Point
from repro.experiments.framework import attempt_deadline


class TestRunResilient:
    def test_success_first_try(self):
        outcome = run_resilient(lambda: 41 + 1)
        assert outcome.ok
        assert outcome.value == 42
        assert outcome.attempts == 1
        assert outcome.error is None

    def test_flaky_task_survives_via_retry(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "done"

        outcome = run_resilient(flaky, retries=2, backoff=0.001)
        assert outcome.ok
        assert outcome.value == "done"
        assert outcome.attempts == 3

    def test_permanent_failure_reported_not_raised(self):
        def broken():
            raise ValueError("always wrong")

        outcome = run_resilient(broken, retries=1, backoff=0.0)
        assert not outcome.ok
        assert outcome.attempts == 2
        assert outcome.error_type == "ValueError"
        assert "always wrong" in outcome.error

    def test_wall_clock_timeout(self):
        def slow():
            time.sleep(5)

        outcome = run_resilient(slow, timeout=0.05, retries=0)
        assert not outcome.ok
        assert outcome.error_type == "SimulationTimeout"

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_resilient(interrupted)

    @pytest.mark.parametrize(
        "exc_type, attempts",
        [
            (InvariantViolation, 1),  # poison
            (WorkloadError, 1),  # fatal
            (ExecutionError, 1),  # fatal
            (JobCancelled, 1),  # cancelled
            (RuntimeError, 3),  # transient
            (SimulationTimeout, 3),  # transient
        ],
    )
    def test_only_transient_failures_retry(self, exc_type, attempts):
        calls = []

        def failing():
            calls.append(1)
            raise exc_type("boom")

        outcome = run_resilient(failing, retries=2, backoff=0.0)
        assert not outcome.ok
        assert outcome.attempts == attempts == len(calls)
        assert outcome.error_type == exc_type.__name__

    def test_attempt_deadline_published_off_main_thread(self):
        seen = {}

        def body():
            seen["outcome"] = run_resilient(attempt_deadline, timeout=5.0)

        before = time.monotonic()
        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        deadline = seen["outcome"].value
        assert before + 5.0 <= deadline <= time.monotonic() + 5.0
        assert run_resilient(attempt_deadline).value is None
        assert attempt_deadline() is None

    def test_outcome_round_trip(self):
        outcome = ResilientOutcome(ok=False, attempts=3, error="x",
                                   error_type="RuntimeError")
        assert ResilientOutcome.from_dict(outcome.to_dict()) == outcome


def _sleep_point(key, **params):
    return Point(key=key, runner="sleep",
                 params={"duration": 0.0, "tag": key, **params})


def _simulate_point(key, policy="profile"):
    return Point(key=key, runner="simulate",
                 params={"name": "compress", "policy": policy,
                         "scale": 0.05, "overrides": {}})


class TestResilientSweep:
    """A resilient sweep: ``ParallelEngine(jobs=1)`` over sleep and
    simulate points."""

    def test_all_tasks_run_and_checkpointed(self, tmp_path):
        points = [_simulate_point("a"), _simulate_point("b", "heuristics")]
        results = ParallelEngine(jobs=1, cache_dir=tmp_path).run(points)
        assert results["a"].ok and results["b"].ok
        assert results["a"].value != results["b"].value
        # Every completed point's payload is stored whole.
        assert ArtifactCache(tmp_path).disk_summary()["point"].entries == 2
        framework.clear_memos()

    def test_resume_skips_completed_runs(self, tmp_path, monkeypatch):
        done = _simulate_point("done")
        first = ParallelEngine(jobs=1, cache_dir=tmp_path).run([done])
        framework.clear_memos()

        def rerun(**params):
            raise InvariantViolation("completed point re-ran")

        # Re-running "done" would fail: it is resumed, not re-run.
        monkeypatch.setitem(engine_mod.POINT_RUNNERS, "simulate", rerun)
        seen = []

        def progress(key, outcome, resumed):
            seen.append((key, resumed))

        results = ParallelEngine(jobs=1, cache_dir=tmp_path).run(
            [done, _sleep_point("todo")], progress=progress
        )
        assert results["done"].value == first["done"].value
        assert results["todo"].value == {"slept": 0.0, "tag": "todo"}
        assert seen == [("done", True), ("todo", False)]
        framework.clear_memos()

    def test_failed_task_does_not_stop_sweep(self):
        engine = ParallelEngine(jobs=1, retries=0, backoff=0.0)
        results = engine.run(
            [_sleep_point("bad", fail="transient"), _sleep_point("good")]
        )
        assert not results["bad"].ok
        assert results["good"].ok


class TestBackoffJitter:
    def test_zero_jitter_is_bit_identical_exponential(self):
        from repro.experiments import backoff_delay

        for attempt in range(6):
            assert backoff_delay(0.05, attempt) == 0.05 * (2**attempt)
            assert backoff_delay(0.05, attempt, jitter=0.0,
                                 jitter_key="k") == 0.05 * (2**attempt)

    def test_jitter_is_deterministic_per_key_and_attempt(self):
        from repro.experiments import backoff_delay

        a = backoff_delay(0.05, 2, jitter=0.5, jitter_key="job-a")
        assert a == backoff_delay(0.05, 2, jitter=0.5, jitter_key="job-a")
        b = backoff_delay(0.05, 2, jitter=0.5, jitter_key="job-b")
        assert a != b  # different tasks desynchronise

    def test_jitter_stays_within_band(self):
        from repro.experiments import backoff_delay

        for key in ("a", "b", "c", "d", "e"):
            for attempt in range(5):
                base = 0.05 * (2**attempt)
                delay = backoff_delay(0.05, attempt, jitter=0.5,
                                      jitter_key=key)
                assert base * 0.5 <= delay <= base * 1.5

    def test_run_resilient_accepts_jitter(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise RuntimeError("transient")
            return "done"

        outcome = run_resilient(flaky, retries=2, backoff=0.001,
                                jitter=0.5, jitter_key="flaky")
        assert outcome.ok and outcome.attempts == 2
