"""Hardened experiment runner: retries, timeouts, checkpoint/resume."""

import json
import threading
import time

import pytest

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
    SweepCheckpoint,
    run_resilient,
)
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


class TestSweepCheckpoint:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ckpt = SweepCheckpoint(path)
        ckpt.record("a@0", ResilientOutcome(ok=True, value={"cycles": 5}))
        assert "a@0" in ckpt

        reloaded = SweepCheckpoint(path)
        assert "a@0" in reloaded
        assert reloaded.get("a@0").value == {"cycles": 5}
        assert reloaded.get("missing") is None

    def test_discard(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ckpt = SweepCheckpoint(path)
        ckpt.record("a@0", ResilientOutcome(ok=True))
        ckpt.discard("a@0")
        assert "a@0" not in SweepCheckpoint(path)

    def test_file_is_valid_json_after_every_record(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ckpt = SweepCheckpoint(path)
        for i in range(3):
            ckpt.record(f"run{i}", ResilientOutcome(ok=True, value=i))
            data = json.loads(path.read_text())
            assert len(data) == i + 1
        assert not path.with_suffix(".json.tmp").exists()


def _sleep_point(key, **params):
    return Point(key=key, runner="sleep",
                 params={"duration": 0.0, "tag": key, **params})


class TestResilientSweep:
    """A resilient sweep: ``ParallelEngine(jobs=1)`` over sleep points."""

    def test_all_tasks_run_and_checkpointed(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "ckpt.json")
        results = ParallelEngine(jobs=1).run(
            [_sleep_point("a"), _sleep_point("b")], checkpoint=ckpt
        )
        assert results["a"].value == {"slept": 0.0, "tag": "a"}
        assert results["b"].value == {"slept": 0.0, "tag": "b"}
        assert len(ckpt) == 2

    def test_resume_skips_completed_runs(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ckpt = SweepCheckpoint(path)
        ckpt.record("done", ResilientOutcome(ok=True, value="cached"))

        seen = []

        def progress(key, outcome, resumed):
            seen.append((key, resumed))

        results = ParallelEngine(jobs=1).run(
            # Re-running "done" would fail: it is resumed, not re-run.
            [_sleep_point("done", fail="poison"), _sleep_point("todo")],
            checkpoint=SweepCheckpoint(path),
            progress=progress,
        )
        assert results["done"].value == "cached"
        assert results["todo"].value == {"slept": 0.0, "tag": "todo"}
        assert seen == [("done", True), ("todo", False)]

    def test_failed_task_does_not_stop_sweep(self):
        engine = ParallelEngine(jobs=1, retries=0, backoff=0.0)
        results = engine.run(
            [_sleep_point("bad", fail="transient"), _sleep_point("good")]
        )
        assert not results["bad"].ok
        assert results["good"].ok


class TestCorruptCheckpointRecovery:
    def test_corrupt_json_quarantined_and_empty_start(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"a@0": {"ok": true, "val')  # truncated write

        ckpt = SweepCheckpoint(path)
        assert len(ckpt) == 0
        assert ckpt.quarantined == tmp_path / "ckpt.json.corrupt"
        assert ckpt.quarantined.exists()
        assert not path.exists()
        # The store works normally after quarantine.
        ckpt.record("b@0", ResilientOutcome(ok=True, value=1))
        assert "b@0" in SweepCheckpoint(path)

    def test_non_object_root_quarantined(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2, 3]")

        ckpt = SweepCheckpoint(path)
        assert len(ckpt) == 0
        assert ckpt.quarantined is not None

    def test_binary_garbage_quarantined(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b"\x00\xff\xfe garbage \x80")

        ckpt = SweepCheckpoint(path)
        assert len(ckpt) == 0
        assert ckpt.quarantined is not None

    def test_valid_checkpoint_not_quarantined(self, tmp_path):
        path = tmp_path / "ckpt.json"
        SweepCheckpoint(path).record(
            "a@0", ResilientOutcome(ok=True, value=1)
        )
        ckpt = SweepCheckpoint(path)
        assert ckpt.quarantined is None
        assert "a@0" in ckpt


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
