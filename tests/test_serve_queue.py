"""Journaled priority queue: admission, dedup, shedding, recovery."""

import pytest

from repro.serve.jobs import JobState, job_digest
from repro.serve.journal import JobJournal
from repro.serve.queue import AdmissionError, JobQueue


def make_queue(tmp_path, **kwargs):
    journal = JobJournal(tmp_path / "journal.jsonl", fsync=False)
    kwargs.setdefault("max_queued", 8)
    queue = JobQueue(journal, **kwargs)
    queue.recover()
    return queue


def sleep_params(tag):
    return {"duration": 0.01, "tag": tag}


class TestSubmitClaim:
    def test_submit_then_claim_fifo(self, tmp_path):
        queue = make_queue(tmp_path)
        job_a, outcome = queue.submit("sleep", sleep_params("a"))
        assert outcome == "accepted"
        assert job_a.state is JobState.QUEUED
        assert job_a.id == job_digest("sleep", sleep_params("a"))
        queue.submit("sleep", sleep_params("b"))

        first = queue.claim(timeout=0)
        assert first.id == job_a.id
        assert first.state is JobState.RUNNING
        assert first.attempts == 1

    def test_priority_lanes_claim_high_first(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("low"), priority="low")
        queue.submit("sleep", sleep_params("norm"), priority="normal")
        high, _ = queue.submit("sleep", sleep_params("hi"),
                               priority="high")

        assert queue.claim(timeout=0).id == high.id

    def test_unknown_runner_and_priority_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(KeyError):
            queue.submit("nope", {})
        with pytest.raises(ValueError):
            queue.submit("sleep", {}, priority="urgent")

    def test_finish_commits_result(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        job = queue.claim(timeout=0)
        queue.finish(job, {"slept": 0.01}, seconds=0.5)
        assert job.state is JobState.DONE
        assert job.result == {"slept": 0.01}
        assert queue.pending() == 0


class TestDedup:
    def test_identical_submission_coalesces(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = queue.submit("sleep", sleep_params("a"))
        dup, outcome = queue.submit("sleep", sleep_params("a"))
        assert outcome == "dedup"
        assert dup is job
        assert queue.depth() == 1

    def test_input_named_at_its_default_dedups(self, tmp_path):
        # Both spellings key one ``point`` artifact, so they are one job.
        queue = make_queue(tmp_path)
        params = {"name": "compress", "policy": "profile", "scale": 0.05,
                  "overrides": {}}
        job, _ = queue.submit("simulate", params)
        named = {**params, "dataset": "train", "profile_dataset": "train"}
        dup, outcome = queue.submit("simulate", named)
        assert outcome == "dedup"
        assert dup.id == job.id
        assert queue.depth() == 1

    def test_crash_key_stays_in_the_job_id(self):
        params = {"spec_fields": {}, "workload": "compress", "rate": 0.05,
                  "sequential": 1, "faultless": 1}
        assert job_digest("campaign", params) != job_digest(
            "campaign", {**params, "crash_key": "compress@0.05"}
        )

    def test_done_job_dedups_instantly(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        job = queue.claim(timeout=0)
        queue.finish(job, {"ok": True})

        dup, outcome = queue.submit("sleep", sleep_params("a"))
        assert outcome == "dedup"
        assert dup.state is JobState.DONE

    def test_failed_job_requeues_on_resubmit(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        job = queue.claim(timeout=0)
        queue.fail(job, error="boom", error_type="RuntimeError")

        again, outcome = queue.submit("sleep", sleep_params("a"))
        assert outcome == "accepted"
        assert again.state is JobState.QUEUED
        assert again.attempts == 0
        assert again.error is None

    def test_quarantined_job_never_requeues(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        job = queue.claim(timeout=0)
        queue.fail(job, error="invariant", error_type="InvariantViolation",
                   quarantine=True)

        again, outcome = queue.submit("sleep", sleep_params("a"))
        assert outcome == "dedup"
        assert again.state is JobState.QUARANTINED

    def test_cache_probe_serves_instantly(self, tmp_path):
        payload = {"cycles": 42}
        queue = make_queue(
            tmp_path,
            cache_probe=lambda job: payload,
        )
        job, outcome = queue.submit("sleep", sleep_params("a"))
        assert outcome == "cached"
        assert job.state is JobState.DONE
        assert job.cached and job.result == payload
        assert queue.depth() == 0


class TestAdmissionControl:
    def test_bounded_queue_rejects_when_full(self, tmp_path):
        queue = make_queue(tmp_path, max_queued=2, shed_ratio=1.0)
        queue.submit("sleep", sleep_params("a"))
        queue.submit("sleep", sleep_params("b"))
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit("sleep", sleep_params("c"))
        assert excinfo.value.reason == "full"

    def test_low_priority_shed_under_pressure(self, tmp_path):
        queue = make_queue(tmp_path, max_queued=4, shed_ratio=0.5)
        queue.submit("sleep", sleep_params("a"))
        queue.submit("sleep", sleep_params("b"))
        # Depth 2 of 4 >= shed threshold: low is refused, normal is not.
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit("sleep", sleep_params("c"), priority="low")
        assert excinfo.value.reason == "shedding"
        queue.submit("sleep", sleep_params("d"), priority="normal")

    def test_high_priority_sheds_queued_low_job(self, tmp_path):
        queue = make_queue(tmp_path, max_queued=2, shed_ratio=0.5)
        low, _ = queue.submit("sleep", sleep_params("low"),
                              priority="low")
        queue.submit("sleep", sleep_params("norm"))

        high, outcome = queue.submit("sleep", sleep_params("hi"),
                                     priority="high")
        assert outcome == "accepted"
        assert low.state is JobState.SHED
        assert queue.claim(timeout=0).id == high.id

    def test_draining_queue_rejects_everything(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.drain()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit("sleep", sleep_params("a"))
        assert excinfo.value.reason == "draining"


class TestCancel:
    def test_cancel_queued_is_terminal(self, tmp_path):
        queue = make_queue(tmp_path)
        job, _ = queue.submit("sleep", sleep_params("a"))
        assert queue.cancel(job.id) == "cancelled"
        assert job.state is JobState.CANCELLED
        assert queue.claim(timeout=0) is None

    def test_cancel_running_sets_flag(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        job = queue.claim(timeout=0)
        assert queue.cancel(job.id) == "cancelling"
        assert job.cancel_requested
        assert job.state is JobState.RUNNING

    def test_cancel_terminal_and_unknown(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        job = queue.claim(timeout=0)
        queue.finish(job, {})
        assert queue.cancel(job.id) == "terminal"
        assert queue.cancel("no-such-job") == "unknown"


class TestRecovery:
    def test_queued_and_running_jobs_requeue_after_crash(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("done"))
        done = queue.claim(timeout=0)
        queue.finish(done, {"ok": True}, seconds=0.1)
        queue.submit("sleep", sleep_params("running"))
        queue.claim(timeout=0)  # running at "crash"
        queue.submit("sleep", sleep_params("queued"))
        # Simulate kill -9: no drain, no rotate; just reopen the WAL.
        queue.journal.close()

        reborn = JobQueue(
            JobJournal(tmp_path / "journal.jsonl", fsync=False)
        )
        report = reborn.recover()
        assert report.jobs == 3
        assert report.requeued == 2
        assert report.finished == 1
        assert report.duplicate_finishes == 0
        survivor = reborn.get(done.id)
        assert survivor.state is JobState.DONE
        assert survivor.result == {"ok": True}
        # Requeued jobs run again exactly once, attempts reset.
        claimed = {reborn.claim(timeout=0).id for _ in range(2)}
        assert claimed == {
            job_digest("sleep", sleep_params("running")),
            job_digest("sleep", sleep_params("queued")),
        }

    def test_recovery_honours_pre_crash_cancel(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        job = queue.claim(timeout=0)
        queue.cancel(job.id)  # running: flag only, journaled
        queue.journal.close()

        reborn = JobQueue(
            JobJournal(tmp_path / "journal.jsonl", fsync=False)
        )
        report = reborn.recover()
        assert report.requeued == 0
        assert reborn.get(job.id).state is JobState.CANCELLED

    def test_recovery_compacts_journal(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        queue.journal.close()

        journal = JobJournal(tmp_path / "journal.jsonl", fsync=False)
        JobQueue(journal).recover()
        assert journal.path.read_text() == ""
        assert journal.snapshot_path.exists()

    def test_recovery_survives_truncated_wal_tail(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("sleep", sleep_params("a"))
        queue.journal.close()
        with open(tmp_path / "journal.jsonl", "a") as handle:
            handle.write('{"event": "finish", "id": "a", "resu')

        reborn = JobQueue(
            JobJournal(tmp_path / "journal.jsonl", fsync=False)
        )
        report = reborn.recover()
        assert report.dropped_tail == 1
        assert report.requeued == 1  # the submit survived intact

    def test_auto_rotation_bounds_wal_growth(self, tmp_path):
        queue = make_queue(tmp_path, rotate_every=16)
        for index in range(16):
            job, _ = queue.submit("sleep", sleep_params(f"j{index}"))
            queue.cancel(job.id)
        lines = [
            line
            for line in queue.journal.path.read_text().splitlines()
            if line
        ]
        assert len(lines) < 16  # rotated at least once along the way
