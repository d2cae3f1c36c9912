"""The durable job journal: fold, corruption tolerance, compaction,
and service-level replay across restarts."""

import json
import os

from repro.serve import EvaluationService, JobJournal, ServiceConfig

from .conftest import instant_eval, payload


def make_journal(tmp_path, **kwargs):
    return JobJournal(str(tmp_path / "journal.jsonl"), **kwargs)


def append_state_line(journal, job_id, state="running", attempts=0):
    """Append a ``state`` event as older builds wrote one; replay must
    skip it."""
    event = {"event": "state", "id": job_id, "state": state,
             "attempts": attempts, "ts": 0.0}
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(event, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Fold semantics
# ----------------------------------------------------------------------


def test_admitted_without_result_is_live(tmp_path):
    journal = make_journal(tmp_path)
    journal.admit("j1", {"arch": "spam2"})
    append_state_line(journal, "j1", attempts=1)
    journal.close()
    terminal, live = make_journal(tmp_path).load()
    assert terminal == {}
    assert live == {"j1": {"arch": "spam2"}}


def test_result_moves_a_job_from_live_to_terminal(tmp_path):
    journal = make_journal(tmp_path)
    journal.admit("j1", {"arch": "spam2"})
    journal.result("j1", {"id": "j1", "state": "succeeded"})
    journal.admit("j2", {"arch": "spam3"})
    journal.close()
    terminal, live = make_journal(tmp_path).load()
    assert terminal == {"j1": {"id": "j1", "state": "succeeded"}}
    assert live == {"j2": {"arch": "spam3"}}


def test_missing_journal_loads_empty(tmp_path):
    terminal, live = make_journal(tmp_path).load()
    assert terminal == {} and live == {}


def test_truncated_final_line_is_skipped(tmp_path):
    """A SIGKILL mid-append leaves a half-written last line; the events
    before it must still replay."""
    journal = make_journal(tmp_path)
    journal.admit("j1", {"arch": "spam2"})
    journal.admit("j2", {"arch": "spam3"})
    journal.close()
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "result", "id": "j2", "rec')  # no \n
    reader = make_journal(tmp_path)
    terminal, live = reader.load()
    assert set(live) == {"j1", "j2"}
    assert reader.corrupt_lines == 1


def test_append_failure_counts_dropped_not_raises(tmp_path):
    journal = JobJournal(str(tmp_path / "journal.jsonl"))
    journal.admit("j1", {"ok": True})
    # swap the path for an unwritable location mid-flight
    journal.close()
    journal.path = str(tmp_path)  # a directory: open(...'a') fails
    journal.admit("j2", {"ok": False})
    assert journal.dropped == 1


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------


def test_compact_keeps_only_recent_terminal_records(tmp_path):
    journal = make_journal(tmp_path, keep_terminal=2)
    for index in range(5):
        job_id = f"j{index}"
        journal.admit(job_id, {"n": index})
        append_state_line(journal, job_id)
        journal.result(job_id, {"id": job_id, "state": "succeeded"})
    terminal, live = journal.load()
    assert len(terminal) == 5 and not live
    journal.compact(terminal.values())
    lines = open(journal.path, encoding="utf-8").readlines()
    assert len(lines) == 2
    kept = [json.loads(line)["id"] for line in lines]
    assert kept == ["j3", "j4"]
    # the append handle reopened on the compacted file
    journal.admit("fresh", {"n": 99})
    journal.close()
    terminal, live = make_journal(tmp_path).load()
    assert set(terminal) == {"j3", "j4"} and set(live) == {"fresh"}


# ----------------------------------------------------------------------
# Service-level replay
# ----------------------------------------------------------------------


def service_config(tmp_path, **overrides):
    config = dict(workers=2, static_check=False,
                  data_dir=str(tmp_path / "data"))
    config.update(overrides)
    return ServiceConfig(**config)


def test_terminal_jobs_resolve_after_restart(tmp_path):
    first = EvaluationService(service_config(tmp_path),
                              evaluate_fn=instant_eval).start()
    job_id = first.submit(payload()).id
    assert first.wait(job_id, timeout=10.0).state.value == "succeeded"
    first.shutdown(drain=True, timeout=5.0)

    second = EvaluationService(service_config(tmp_path),
                               evaluate_fn=instant_eval).start()
    try:
        restored = second.job(job_id).to_dict()
        assert restored["state"] == "succeeded"
        assert restored["restored"] is True
        assert restored["result"]["cycles"] == 100
    finally:
        second.shutdown(drain=False, timeout=2.0)


def test_served_job_journals_only_admission_and_result(tmp_path):
    service = EvaluationService(service_config(tmp_path),
                                evaluate_fn=instant_eval).start()
    try:
        job_id = service.submit(payload()).id
        assert service.wait(job_id, timeout=10.0).state.value == "succeeded"
    finally:
        service.shutdown(drain=True, timeout=5.0)
    with open(service.journal.path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle]
    assert [(event["event"], event["id"]) for event in events] == [
        ("admitted", job_id), ("result", job_id)]


def test_live_jobs_replay_with_their_original_ids(tmp_path):
    """An accepted-but-unfinished job (a crash, not a drain) is re-run
    under the same id on the next start."""
    config = service_config(tmp_path)
    first = EvaluationService(config, evaluate_fn=instant_eval)
    # simulate a crash: journal an admission, never process it.  Ids are
    # opaque, so the shard-prefixed ids older releases wrote replay too
    first.journal.admit("s0-deadbeef00000000", payload())
    first.journal.close()

    second = EvaluationService(service_config(tmp_path),
                               evaluate_fn=instant_eval).start()
    try:
        record = second.wait("s0-deadbeef00000000", timeout=10.0)
        assert record.state.value == "succeeded"
        snapshot = second.metrics.snapshot()
        assert snapshot.counters.get("serve.jobs_replayed") == 1
    finally:
        second.shutdown(drain=False, timeout=2.0)


def test_replayed_block_job_gets_the_compiled_engines_result(tmp_path):
    """A job journaled under "block" replays under that name on the
    compiled engine, which the name now builds."""
    first = EvaluationService(service_config(tmp_path, workers=1))
    first.journal.admit("deadbeef00000001", payload(backend="block"))
    first.journal.close()

    second = EvaluationService(service_config(tmp_path, workers=1)).start()
    try:
        replayed = second.wait("deadbeef00000001", timeout=120.0)
        fresh = second.submit(payload(backend="compiled"))
        reference = second.wait(fresh.id, timeout=120.0)
    finally:
        second.shutdown(drain=False, timeout=2.0)
    assert replayed.state.value == reference.state.value == "succeeded"
    record = replayed.to_dict()
    assert record["backend"] == "block"
    assert record["result"] == reference.to_dict()["result"]


def test_drained_jobs_are_not_replayed(tmp_path):
    """A graceful drain cancels queued jobs terminally — a restart must
    not resurrect them (only a crash leaves live entries)."""
    import threading

    release = threading.Event()

    def gated_eval(job):
        release.wait(5.0)
        return instant_eval(job)

    first = EvaluationService(service_config(tmp_path, workers=1),
                              evaluate_fn=gated_eval).start()
    blocker = first.submit(payload()).id
    queued = first.submit(payload(priority=-1,
                                  workloads=["dot:8"])).id
    release.set()
    first.wait(blocker, timeout=10.0)
    first.shutdown(drain=True, timeout=5.0)
    # the queued job was either finished or cancelled by the drain;
    # either way it is terminal in the journal
    second = EvaluationService(service_config(tmp_path),
                               evaluate_fn=instant_eval).start()
    try:
        record = second.job(queued).to_dict()
        assert record["state"] in ("succeeded", "cancelled")
        counters = second.metrics.snapshot().counters
        assert counters.get("serve.jobs_replayed", 0) == 0
    finally:
        second.shutdown(drain=False, timeout=2.0)


def test_journal_compacts_on_startup(tmp_path):
    config = service_config(tmp_path, journal_keep_terminal=3)
    first = EvaluationService(config, evaluate_fn=instant_eval).start()
    ids = []
    for index in range(5):
        job = first.submit(payload(workloads=[f"sum:{8 + index}"]))
        ids.append(job.id)
    for job_id in ids:
        first.wait(job_id, timeout=10.0)
    first.shutdown(drain=True, timeout=5.0)

    second = EvaluationService(service_config(
        tmp_path, journal_keep_terminal=3),
        evaluate_fn=instant_eval).start()
    try:
        journal_path = os.path.join(config.data_dir, "journal.jsonl")
        lines = open(journal_path, encoding="utf-8").readlines()
        # compacted to at most keep_terminal result lines
        assert 0 < len(lines) <= 3
    finally:
        second.shutdown(drain=False, timeout=2.0)
