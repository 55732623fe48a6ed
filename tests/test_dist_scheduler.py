"""Work-stealing scheduler tests: seeding, leases, exactly-once."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.scheduler import CostModel, WorkStealingScheduler


@dataclass(frozen=True)
class Task:
    key: str


def _tasks(*keys):
    return [Task(key) for key in keys]


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        WorkStealingScheduler(_tasks("a", "a"))


def test_global_deque_is_longest_job_first():
    cost = CostModel(priors={"small": 1.0, "big": 10.0, "mid": 5.0})
    sched = WorkStealingScheduler(
        _tasks("small", "mid", "big"), cost=cost
    )
    grants = [sched.next_task("w0").key for _ in range(3)]
    assert grants == ["big", "mid", "small"]


def test_unknown_costs_keep_submission_order():
    sched = WorkStealingScheduler(_tasks("c", "a", "b"))
    grants = [sched.next_task("w0").key for _ in range(3)]
    assert grants == ["c", "a", "b"]


def test_complete_is_exactly_once():
    sched = WorkStealingScheduler(_tasks("a"))
    sched.next_task("w0")
    assert sched.complete("w0", "a") is True
    assert sched.complete("w0", "a") is False
    assert sched.duplicate_finishes == 1
    assert sched.complete("w0", "unknown-key") is False
    assert sched.done()


def test_requeue_worker_preserves_front_order():
    sched = WorkStealingScheduler(_tasks("a", "b", "c", "d"))
    assert sched.next_task("w0").key == "a"
    assert sched.next_task("w0").key == "b"
    lost = sched.requeue_worker("w0")
    assert lost == ["a", "b"]
    assert sched.requeues == 2
    # Requeued leases come back at the FRONT, oldest first.
    assert sched.next_task("w1").key == "a"
    assert sched.next_task("w1").key == "b"
    assert sched.next_task("w1").key == "c"


def test_late_duplicate_after_requeue_is_dropped():
    sched = WorkStealingScheduler(_tasks("a"))
    sched.next_task("w0")
    sched.requeue_worker("w0")  # w0 declared dead
    sched.next_task("w1")
    assert sched.complete("w1", "a") is True
    # w0 was not actually dead and reports late: dropped, counted.
    assert sched.complete("w0", "a") is False
    snap = sched.snapshot()
    assert snap["duplicate_finishes"] == 1
    assert snap["lost"] == 0


def test_snapshot_counts():
    sched = WorkStealingScheduler(_tasks("a", "b"))
    sched.next_task("w0")
    sched.complete("w0", "a")
    snap = sched.snapshot()
    assert snap["tasks"] == 2
    assert snap["completed"] == 1
    assert snap["lost"] == 1
    assert snap["dispatched"] == {"w0": 1}


@given(
    n_tasks=st.integers(min_value=1, max_value=24),
    n_workers=st.integers(min_value=1, max_value=5),
    costs=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=24, max_size=24
    ),
    deaths=st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    choices=st.lists(st.integers(min_value=0, max_value=4), max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_property_any_interleaving_completes_exactly_once(
    n_tasks, n_workers, costs, deaths, choices
):
    """However grants, deaths, and duplicates interleave, every task
    completes exactly once and nothing is lost."""
    keys = [f"t{i}" for i in range(n_tasks)]
    cost = CostModel(
        priors={key: costs[i] for i, key in enumerate(keys)}
    )
    workers = [f"w{i}" for i in range(n_workers)]
    sched = WorkStealingScheduler(_tasks(*keys), cost=cost)

    dead = set()
    finished = []
    deaths = list(deaths)
    step = 0
    while not sched.done():
        step += 1
        assert step < 10_000, "scheduler failed to converge"
        wid = workers[
            choices[step % len(choices)] % n_workers if choices else 0
        ]
        if wid in dead:
            # A dead worker may still report a stale result: must be
            # dropped, never double-committed.
            if finished:
                assert sched.complete(wid, finished[-1]) is False
            dead.discard(wid)  # the fleet respawns it
            sched.register(wid)
            continue
        if deaths and deaths[0] == step % 5 and len(dead) < n_workers - 1:
            deaths.pop(0)
            sched.requeue_worker(wid)
            dead.add(wid)
            continue
        task = sched.next_task(wid)
        if task is None:
            # Nothing stealable: some lease is held by a dead worker.
            for stuck in list(dead):
                sched.requeue_worker(stuck)
                dead.discard(stuck)
                sched.register(stuck)
            continue
        if sched.complete(wid, task.key):
            finished.append(task.key)

    assert sorted(finished) == sorted(keys)
    snap = sched.snapshot()
    assert snap["completed"] == n_tasks
    assert snap["lost"] == 0
