"""The bounded priority queue and job records."""

import time

import pytest

from repro.explore.metrics import CostWeights
from repro.serve.jobs import (
    Job,
    JobQueue,
    JobState,
    QueueFullError,
    ServiceUnavailableError,
    new_job_id,
)

WEIGHTS = CostWeights(1.0, 0.35, 0.25)


def make_job(label="j", priority=0):
    return Job(
        id=new_job_id(), desc=None, label=label, workloads=("sum",),
        kernels=(), weights=WEIGHTS, backend="xsim", max_steps=1000,
        priority=priority,
    )


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------


def test_higher_priority_pops_first():
    queue = JobQueue()
    queue.push(make_job("low", priority=0))
    queue.push(make_job("urgent", priority=5))
    queue.push(make_job("mid", priority=1))
    order = [queue.pop().label for _ in range(3)]
    assert order == ["urgent", "mid", "low"]


def test_fifo_within_a_priority_level():
    queue = JobQueue()
    for label in ("a", "b", "c"):
        queue.push(make_job(label, priority=3))
    order = [queue.pop().label for _ in range(3)]
    assert order == ["a", "b", "c"]


def test_not_before_hides_an_entry_until_its_time():
    queue = JobQueue()
    queue.push(make_job("delayed"),
               not_before=time.monotonic() + 0.15)
    queue.push(make_job("ready"))
    assert queue.pop().label == "ready"
    # the delayed entry is invisible right now...
    assert queue.pop(timeout=0.01) is None
    # ...and becomes ready once its backoff elapses
    assert queue.pop(timeout=1.0).label == "delayed"


# ----------------------------------------------------------------------
# Depth bound
# ----------------------------------------------------------------------


def test_depth_bound_raises_queue_full():
    queue = JobQueue(max_depth=2)
    queue.push(make_job("a"))
    queue.push(make_job("b"))
    with pytest.raises(QueueFullError):
        queue.push(make_job("c"))
    assert len(queue) == 2


def test_requeue_bypasses_the_bound():
    queue = JobQueue(max_depth=1)
    queue.push(make_job("a"))
    # a retry of an already-accepted job must never be dropped
    queue.push(make_job("retry"), enforce_bound=False)
    assert len(queue) == 2


def test_requeue_keeps_the_original_sequence_number():
    """A retried job must not starve behind later same-priority
    arrivals: its first-accepted seq travels with it through requeues."""
    queue = JobQueue()
    first = make_job("first")
    queue.push(first)
    popped = queue.pop()
    assert popped is first and first.seq is not None
    original_seq = first.seq
    # later arrivals at the same priority while 'first' is being retried
    queue.push(make_job("later-1"))
    queue.push(make_job("later-2"))
    # requeue with a short retry backoff (the crash-retry path)
    queue.push(first, enforce_bound=False,
               not_before=time.monotonic() + 0.05)
    assert first.seq == original_seq
    # while the backoff holds, a later arrival may run (work
    # conservation)...
    assert queue.pop().label == "later-1"
    time.sleep(0.06)
    # ...but once matured, the retry pops before anything that arrived
    # after it — its original seq still outranks later-2's
    retried = queue.pop(timeout=1.0)
    assert retried.label == "first", \
        f"requeued job starved behind {retried.label!r}"
    assert retried.seq == original_seq
    assert queue.pop().label == "later-2"


def test_requeued_job_still_matures_after_backoff():
    queue = JobQueue()
    job = make_job("retry")
    queue.push(job)
    queue.pop()
    queue.push(job, enforce_bound=False,
               not_before=time.monotonic() + 0.05)
    assert queue.pop(timeout=0.01) is None  # backoff holds
    assert queue.pop(timeout=1.0) is job


def test_depth_bound_must_be_positive():
    with pytest.raises(ValueError):
        JobQueue(max_depth=0)


# ----------------------------------------------------------------------
# Drain / stop
# ----------------------------------------------------------------------


def test_drain_returns_queued_jobs_and_stops_the_queue():
    queue = JobQueue()
    queue.push(make_job("a"))
    queue.push(make_job("b"), not_before=time.monotonic() + 60.0)
    drained = queue.drain()
    assert {job.label for job in drained} == {"a", "b"}
    assert queue.stopped
    assert len(queue) == 0
    with pytest.raises(ServiceUnavailableError):
        queue.push(make_job("c"))
    assert queue.pop() is None


# ----------------------------------------------------------------------
# Job records
# ----------------------------------------------------------------------


def test_job_state_terminality():
    assert not JobState.QUEUED.terminal
    assert not JobState.RUNNING.terminal
    for state in (JobState.SUCCEEDED, JobState.FAILED,
                  JobState.REJECTED, JobState.CANCELLED):
        assert state.terminal


def test_job_ids_are_unique():
    assert len({new_job_id() for _ in range(100)}) == 100
