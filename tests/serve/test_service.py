"""The evaluation service: lifecycle, gate, coalescing, timeouts, drain."""

import sys
import threading
import time

import pytest

from repro.serve import (
    BadRequestError,
    EvaluationService,
    JobState,
    QueueFullError,
    ServiceConfig,
    ServiceUnavailableError,
    UnknownJobError,
)
from repro.serve.service import (
    CODE_PARSE_ERROR,
    DEFAULT_MAX_STEPS,
    KNOWN_BACKENDS,
)

from .conftest import instant_eval, payload, stub_evaluation


def counter(service, name):
    return service.metrics_snapshot().counters.get(name, 0.0)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_submit_wait_succeed(service_factory):
    service = service_factory()
    job = service.submit(payload())
    done = service.wait(job.id, timeout=10.0)
    assert done.state is JobState.SUCCEEDED
    assert done.evaluation is not None and done.evaluation.feasible
    assert done.attempts == 1
    assert counter(service, "serve.jobs_accepted") == 1
    assert counter(service, "serve.evaluations_run") == 1
    assert counter(service, "serve.jobs_completed") == 1


def test_job_record_round_trips_to_dict(service_factory):
    service = service_factory()
    job = service.submit(payload(label="mine", priority=2))
    record = service.wait(job.id, timeout=10.0).to_dict()
    assert record["state"] == "succeeded"
    assert record["label"] == "mine"
    assert record["priority"] == 2
    assert record["result"]["feasible"] is True
    assert record["result"]["cycles"] == 100


def test_wait_times_out_on_a_stuck_job(service_factory):
    block = threading.Event()
    service = service_factory(evaluate_fn=lambda job: block.wait(30))
    job = service.submit(payload())
    with pytest.raises(TimeoutError):
        service.wait(job.id, timeout=0.05)
    block.set()


def test_unknown_job_id(service_factory):
    service = service_factory()
    with pytest.raises(UnknownJobError):
        service.job("deadbeef")


def test_context_manager_starts_and_drains():
    with EvaluationService(
        ServiceConfig(workers=1, static_check=False),
        evaluate_fn=instant_eval,
    ) as service:
        job = service.submit(payload())
        service.wait(job.id, timeout=10.0)
    assert service.draining
    with pytest.raises(ServiceUnavailableError):
        service.submit(payload())


# ----------------------------------------------------------------------
# Payload validation (HTTP 400 material)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    {"arch": "spam2", "isdl": "processor"},  # both targets
    {},                                      # neither target
    {"arch": "no-such-arch"},
    {"arch": "spam2", "backend": "verilog"},
    {"arch": "spam2", "workloads": ["no-such-kernel"]},
    {"arch": "spam2", "workloads": ["sum:0"]},
    {"arch": "spam2", "weights": [1, 2, 3]},
    {"arch": "spam2", "weights": {"runtime": "heavy"}},
    {"arch": "spam2", "timeout_s": -1},
    {"arch": "spam2", "max_steps": 0},
])
def test_uninterpretable_payloads_raise_bad_request(service_factory, bad):
    service = service_factory()
    with pytest.raises(BadRequestError):
        service.submit(bad)
    assert counter(service, "serve.jobs_accepted") == 0


# ----------------------------------------------------------------------
# Admission gate
# ----------------------------------------------------------------------


def test_unparseable_isdl_is_rejected_with_isdl001(service_factory):
    service = service_factory(static_check=True)
    job = service.submit({"isdl": "processor oops {"})
    assert job.state is JobState.REJECTED
    assert job.diagnostics[0].code == CODE_PARSE_ERROR
    assert "admission gate" in job.error
    assert counter(service, "serve.jobs_rejected") == 1
    assert counter(service, "serve.jobs_accepted") == 0


def test_gate_rejects_invalid_description_with_diagnostics(service_factory):
    with open("examples/ambiguous.isdl", "r", encoding="utf-8") as handle:
        source = handle.read()
    service = service_factory(static_check=True)
    job = service.submit({"isdl": source})
    assert job.state is JobState.REJECTED
    assert job.diagnostics  # the full repro-lint list rides on the record
    assert any(d.code.startswith("ISDL") for d in job.diagnostics)
    assert counter(service, "serve.evaluations_run") == 0


def test_gate_can_be_disabled(service_factory):
    with open("examples/ambiguous.isdl", "r", encoding="utf-8") as handle:
        source = handle.read()
    service = service_factory(static_check=False)
    job = service.submit({"isdl": source})
    assert job.state is not JobState.REJECTED
    service.wait(job.id, timeout=10.0)


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------


def test_duplicate_inflight_submission_coalesces(service_factory):
    release = threading.Event()

    def gated(job):
        release.wait(10)
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=gated, workers=1)
    leader = service.submit(payload())
    twin = service.submit(payload())
    assert twin.coalesced_with == leader.id
    release.set()
    for job in (leader, twin):
        assert service.wait(job.id, timeout=10.0).state \
            is JobState.SUCCEEDED
    assert twin.evaluation is leader.evaluation
    assert counter(service, "serve.evaluations_run") == 1
    assert counter(service, "serve.jobs_coalesced") == 1
    assert counter(service, "serve.jobs_completed") == 2


def test_accepted_coalesced_and_rejected_jobs_carry_admission_time(
        service_factory):
    release = threading.Event()

    def gated(job):
        release.wait(10)
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=gated, workers=1,
                              static_check=True)
    leader = service.submit(payload())
    twin = service.submit(payload())
    rejected = service.submit({"isdl": "processor oops {"})
    release.set()
    assert twin.coalesced_with == leader.id
    assert rejected.state is JobState.REJECTED
    for job in (leader, twin, rejected):
        record = service.wait(job.id, timeout=10.0).to_dict(full=True)
        assert record["admission_s"] > 0.0
    histogram = service.metrics_snapshot().histograms[
        "serve.admission_seconds"]
    assert histogram.count == 3


def test_different_configurations_do_not_coalesce(service_factory):
    release = threading.Event()

    def gated(job):
        release.wait(10)
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=gated, workers=2)
    a = service.submit(payload(max_steps=1000))
    b = service.submit(payload(max_steps=2000))
    assert b.coalesced_with is None
    release.set()
    service.wait(a.id, timeout=10.0)
    service.wait(b.id, timeout=10.0)
    assert counter(service, "serve.evaluations_run") == 2


def test_coalescing_can_be_disabled(service_factory):
    release = threading.Event()

    def gated(job):
        release.wait(10)
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=gated, workers=2,
                              coalesce=False)
    a = service.submit(payload())
    b = service.submit(payload())
    assert b.coalesced_with is None
    release.set()
    service.wait(a.id, timeout=10.0)
    service.wait(b.id, timeout=10.0)
    assert counter(service, "serve.evaluations_run") == 2


def test_followers_of_a_failed_leader_fail_too(service_factory):
    release = threading.Event()

    def doomed(job):
        release.wait(10)
        raise RuntimeError("synthesis exploded")

    service = service_factory(evaluate_fn=doomed, workers=1)
    leader = service.submit(payload())
    twin = service.submit(payload())
    release.set()
    assert service.wait(leader.id, timeout=10.0).state is JobState.FAILED
    assert service.wait(twin.id, timeout=10.0).state is JobState.FAILED
    assert "synthesis exploded" in twin.error
    assert counter(service, "serve.jobs_failed") == 2


# ----------------------------------------------------------------------
# Inline ISDL: each distinct text is parsed once
# ----------------------------------------------------------------------


def _spam2_text():
    from repro.arch import description_for
    from repro.isdl import print_description

    return print_description(description_for("spam2"))


@pytest.fixture
def counted_parses(monkeypatch):
    """The texts of every ISDL parse admission runs (it resolves
    ``repro.isdl.load_string`` per call, so a wrapper sees them all)."""
    import repro.isdl

    texts = []
    real = repro.isdl.load_string

    def counting(text, *args, **kwargs):
        texts.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(repro.isdl, "load_string", counting)
    return texts


def test_repeated_isdl_text_is_parsed_once(counted_parses):
    text = _spam2_text()
    config = ServiceConfig(workers=1, static_check=True)
    with EvaluationService(config) as service:
        jobs = [service.submit({"isdl": text, "workloads": ["sum:8"]})
                for _ in range(3)]
        done = [service.wait(job.id, timeout=120.0) for job in jobs]
    assert counted_parses == [text]
    assert all(job.desc is jobs[0].desc for job in jobs)
    assert all(job.state is JobState.SUCCEEDED for job in done)
    results = [job.to_dict()["result"] for job in done]
    assert results == [results[0]] * 3
    assert counter(service, "serve.parses_reused") == 2
    assert counter(service, "serve.evaluations_run") == 1


def test_text_differing_by_a_comment_parses_again_but_coalesces(
        service_factory, counted_parses):
    release = threading.Event()

    def gated(job):
        release.wait(10)
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=gated, workers=1)
    text = _spam2_text()
    commented = text + "# the same machine\n"
    leader = service.submit({"isdl": text})
    twin = service.submit({"isdl": commented})
    release.set()
    # the memo is keyed by the exact text, the coalescing key by the
    # fingerprint, which a comment does not change
    assert counted_parses == [text, commented]
    assert twin.desc is not leader.desc
    assert twin.key == leader.key
    assert twin.coalesced_with == leader.id
    assert service.wait(twin.id, timeout=10.0).state is JobState.SUCCEEDED
    assert counter(service, "serve.parses_reused") == 0
    assert counter(service, "serve.evaluations_run") == 1


def test_unparseable_text_is_parsed_and_rejected_every_time(
        service_factory, counted_parses):
    service = service_factory(static_check=True)
    source = "processor oops {"
    for _ in range(2):
        job = service.submit({"isdl": source})
        assert job.state is JobState.REJECTED
        assert job.diagnostics[0].code == CODE_PARSE_ERROR
    assert counted_parses == [source, source]
    assert counter(service, "serve.parses_reused") == 0
    assert counter(service, "serve.jobs_rejected") == 2


def test_concurrent_submissions_of_one_new_text_all_succeed(
        service_factory, counted_parses, monkeypatch):
    import repro.isdl

    counting = repro.isdl.load_string

    def slow(*args, **kwargs):
        time.sleep(0.05)  # hold each parse open so the threads overlap
        return counting(*args, **kwargs)

    monkeypatch.setattr(repro.isdl, "load_string", slow)
    service = service_factory(static_check=True)
    text = _spam2_text()
    barrier = threading.Barrier(8)
    jobs, errors = [], []

    def submit():
        barrier.wait(10)
        try:
            jobs.append(service.submit({"isdl": text}))
        except Exception as exc:  # recorded for the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=submit) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to expose races
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(jobs) == 8
    for job in jobs:
        assert service.wait(job.id, timeout=10.0).state \
            is JobState.SUCCEEDED
    # racing parses adopt the first one stored: every job shares it
    assert all(job.desc is jobs[0].desc for job in jobs)
    assert len(counted_parses) + counter(service, "serve.parses_reused") \
        == 8


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------


def test_full_queue_throttles_submissions(service_factory):
    block = threading.Event()

    def gated(job):
        block.wait(30)
        return stub_evaluation(job.label)

    service = service_factory(
        evaluate_fn=gated, workers=1, max_queue_depth=2, coalesce=False,
    )
    jobs = [service.submit(payload())]  # occupies the worker
    time.sleep(0.1)  # let the worker pop it off the queue
    jobs.append(service.submit(payload()))
    jobs.append(service.submit(payload()))
    with pytest.raises(QueueFullError):
        service.submit(payload())
    assert counter(service, "serve.jobs_throttled") == 1
    block.set()
    for job in jobs:
        assert service.wait(job.id, timeout=10.0).state \
            is JobState.SUCCEEDED


# ----------------------------------------------------------------------
# Timeouts and retries
# ----------------------------------------------------------------------


def test_slow_first_attempt_retries_then_succeeds(service_factory):
    attempts = []

    def flaky(job):
        attempts.append(time.monotonic())
        if len(attempts) == 1:
            time.sleep(5.0)  # blows the deadline; thread is abandoned
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=flaky, workers=1)
    job = service.submit(payload(timeout_s=0.2))
    done = service.wait(job.id, timeout=15.0)
    assert done.state is JobState.SUCCEEDED
    assert done.attempts == 2
    assert counter(service, "serve.jobs_retried") == 1
    assert counter(service, "serve.jobs_timeout") == 0


def test_persistent_timeout_exhausts_attempts_and_fails(service_factory):
    service = service_factory(
        evaluate_fn=lambda job: time.sleep(30),
        workers=1, max_attempts=2,
    )
    job = service.submit(payload(timeout_s=0.1))
    done = service.wait(job.id, timeout=15.0)
    assert done.state is JobState.FAILED
    assert "timed out" in done.error
    assert done.attempts == 2
    assert counter(service, "serve.jobs_retried") == 1
    assert counter(service, "serve.jobs_timeout") == 1


def test_timed_out_jobs_batchmates_are_requeued_unharmed(service_factory):
    order = []

    def recording(job):
        order.append(job.label)
        if job.label == "stuck" and order.count("stuck") == 1:
            time.sleep(5.0)
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=recording, workers=1,
                              coalesce=False, max_attempts=2)
    stuck = service.submit(payload(label="stuck", timeout_s=0.2))
    mate = service.submit(payload(label="mate", timeout_s=5.0))
    assert service.wait(mate.id, timeout=15.0).state is JobState.SUCCEEDED
    assert service.wait(stuck.id, timeout=15.0).state \
        is JobState.SUCCEEDED
    assert mate.attempts == 1  # never charged for its neighbour's stall


# ----------------------------------------------------------------------
# Worker crash resilience
# ----------------------------------------------------------------------


def test_raising_evaluation_fails_job_but_pool_survives(service_factory):
    def sometimes(job):
        if job.label == "boom":
            raise ValueError("cannot synthesize")
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=sometimes, workers=1)
    bad = service.submit(payload(label="boom"))
    assert service.wait(bad.id, timeout=10.0).state is JobState.FAILED
    assert "cannot synthesize" in bad.error
    good = service.submit(payload(label="fine", max_steps=777))
    assert service.wait(good.id, timeout=10.0).state is JobState.SUCCEEDED


def test_infeasible_evaluation_is_a_successful_measurement(
        service_factory):
    from repro.explore.metrics import Evaluation

    service = service_factory(
        evaluate_fn=lambda job: Evaluation(
            name=job.label, feasible=False, reason="does not fit",
        ),
    )
    job = service.submit(payload())
    done = service.wait(job.id, timeout=10.0)
    assert done.state is JobState.SUCCEEDED  # a negative result, not a bug
    record = done.to_dict()
    assert record["result"] == {
        "feasible": False, "reason": "does not fit", "cost": None,
    }


# ----------------------------------------------------------------------
# Priorities and drain
# ----------------------------------------------------------------------


def test_priority_jumps_the_queue(service_factory):
    release = threading.Event()
    order = []

    def recording(job):
        if job.label == "gate":
            release.wait(10)
        order.append(job.label)
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=recording, workers=1,
                              coalesce=False)
    service.submit(payload(label="gate"))
    time.sleep(0.1)  # the gate job must be off the queue first
    low = service.submit(payload(label="low", priority=0))
    high = service.submit(payload(label="high", priority=5))
    release.set()
    service.wait(low.id, timeout=10.0)
    service.wait(high.id, timeout=10.0)
    assert order == ["gate", "high", "low"]


def test_priority_order_holds_across_configurations():
    """A worker takes one job at a time: a low-priority job that shares
    the configuration of a high-priority one never overtakes a
    middle-priority job configured differently."""
    gate_running = threading.Event()
    release = threading.Event()
    order = []

    def recording(job):
        if job.label == "gate":
            gate_running.set()
            release.wait(10)
        order.append(job.label)
        return stub_evaluation(job.label)

    config = ServiceConfig(workers=1, static_check=False, coalesce=False)
    with EvaluationService(config, evaluate_fn=recording) as service:
        service.submit(payload(label="gate"))
        assert gate_running.wait(10)
        jobs = [
            service.submit(payload(label="A", priority=5)),
            service.submit(payload(label="B", priority=3, max_steps=777)),
            service.submit(payload(label="C", priority=1)),
        ]
        release.set()
        for job in jobs:
            service.wait(job.id, timeout=10.0)
    assert order == ["gate", "A", "B", "C"]


def test_drain_finishes_inflight_and_cancels_queued(service_factory):
    release = threading.Event()

    def gated(job):
        release.wait(10)
        return stub_evaluation(job.label)

    service = service_factory(evaluate_fn=gated, workers=1,
                              coalesce=False)
    running = service.submit(payload(label="running"))
    time.sleep(0.1)
    queued = [service.submit(payload(label=f"q{i}")) for i in range(3)]
    release.set()
    service.shutdown(drain=True, timeout=10.0)
    assert running.state is JobState.SUCCEEDED
    assert all(job.state is JobState.CANCELLED for job in queued)
    assert all("shut down" in job.error for job in queued)
    assert counter(service, "serve.jobs_cancelled") == 3
    assert service.health()["status"] == "draining"


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------


def test_health_summarizes_jobs_and_counters(service_factory):
    service = service_factory(static_check=True)
    done = service.submit(payload())
    service.wait(done.id, timeout=10.0)
    service.submit({"isdl": "processor oops {"})
    health = service.health()
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert health["jobs"] == {"succeeded": 1, "rejected": 1}
    assert health["counters"]["serve.jobs_accepted"] == 1
    assert health["counters"]["serve.jobs_rejected"] == 1


def test_jobs_listing_preserves_submission_order(service_factory):
    service = service_factory()
    ids = [service.submit(payload(label=f"j{i}", max_steps=1000 + i)).id
           for i in range(3)]
    assert [job.id for job in service.jobs()] == ids


# ----------------------------------------------------------------------
# The real tool chain (no evaluate_fn seam)
# ----------------------------------------------------------------------


def test_admitted_warning_only_description_succeeds():
    from repro.arch import spam2

    source = spam2.ISDL_SOURCE.replace(
        "    forbid MEM.st & MV.mov\n",
        "    forbid MEM.st & MV.mov\n    forbid MEM.st & MV.gone\n",
    )
    config = ServiceConfig(workers=1, static_check=True)
    with EvaluationService(config) as service:
        # the gate admits it (ISDL201 is a warning) and its verdict is
        # final: the tool chain measures the job instead of failing it
        job = service.submit({"isdl": source, "workloads": ["sum:8"]})
        assert job.state is not JobState.REJECTED
        done = service.wait(job.id, timeout=120.0)
        assert done.state is JobState.SUCCEEDED, done.error
        base = service.submit(payload(workloads=["sum:8"]))
        want = service.wait(base.id, timeout=120.0).evaluation
    for metric in ("cycles", "die_size", "cycle_ns", "power_mw"):
        assert getattr(done.evaluation, metric) == getattr(want, metric)


def test_job_without_a_backend_runs_on_compiled_like_xsim():
    # "block" is the compiled engine's second name: a job naming it keeps
    # its backend in the record and the cache key, and gets the result
    config = ServiceConfig(workers=1, static_check=False)
    with EvaluationService(config) as service:
        default = service.submit(payload(workloads=["sum:8"]))
        reference = service.submit(payload(workloads=["sum:8"],
                                           backend="xsim"))
        block = service.submit(payload(workloads=["sum:8"],
                                       backend="block"))
        done = [service.wait(job.id, timeout=120.0)
                for job in (default, reference, block)]
    assert all(job.state is JobState.SUCCEEDED for job in done)
    records = [job.to_dict() for job in done]
    assert [r["backend"] for r in records] == ["compiled", "xsim", "block"]
    assert records[0]["result"] == records[1]["result"] == records[2]["result"]
    assert counter(service, "serve.evaluations_run") == 3


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_every_admitted_backend_builds_an_engine_that_agrees(backend):
    # a name the service admits but gensim cannot build would fail each
    # such job at run time, after it was accepted
    from repro.arch import description_for
    from repro.codegen import Compiler
    from repro.codegen.kernels import resolve_kernels
    from repro.gensim import simulator_for

    desc = description_for("spam2")
    (kernel,) = resolve_kernels(["sum:8"])
    program = Compiler(desc).compile_to_words(kernel)
    results = []
    for name in ("xsim", backend):
        sim = simulator_for(desc, name)
        sim.load_words(program.words, program.origin)
        results.append(sim.run_to_completion(DEFAULT_MAX_STEPS))
    assert results[1] == results[0]


@pytest.mark.parametrize("share_evaluations", [True, False])
def test_real_evaluation_and_cache_dedupe_across_time(share_evaluations):
    config = ServiceConfig(workers=1, static_check=False,
                           share_evaluations=share_evaluations)
    with EvaluationService(config) as service:
        first = service.submit(payload(workloads=["sum:8"]))
        done = service.wait(first.id, timeout=120.0)
        assert done.state is JobState.SUCCEEDED
        assert done.evaluation.feasible
        assert done.evaluation.cycles > 0
        assert not done.cached
        # the same candidate after completion: served from the cache,
        # no second toolchain run (dedupe across time, not in flight);
        # without the shared evaluation memo it is measured again
        second = service.submit(payload(workloads=["sum:8"]))
        again = service.wait(second.id, timeout=120.0)
        assert again.state is JobState.SUCCEEDED
        assert again.cached is share_evaluations
        assert again.evaluation.cycles == done.evaluation.cycles
        snapshot = service.metrics_snapshot()
        assert snapshot.counters["serve.evaluations_run"] == \
            (1 if share_evaluations else 2)
