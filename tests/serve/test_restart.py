"""Crash recovery of a real ``repro-serve`` process.

The daemon runs with ``--data-dir``, takes a burst of jobs, and is
SIGKILLed mid-burst — no drain, no atexit.  Restarted on the same
directory, it replays its journal: every id accepted before the kill
resolves to a finished record under that same id.
"""

import os
import signal
import subprocess
import sys

from repro.serve import JobJournal, ServeClient

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def start_daemon(data_dir):
    """A ``repro-serve serve`` child on a free port, and its URL."""
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", "serve", "--port", "0",
         "--workers", "1", "--data-dir", data_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    lines = []
    for line in proc.stdout:
        lines.append(line)
        if "listening on" in line:
            return proc, line.split("listening on", 1)[1].split()[0]
    proc.wait(timeout=10.0)
    raise AssertionError(f"daemon did not start: {''.join(lines)}")


def stop_daemon(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def test_accepted_jobs_survive_sigkill_and_restart(tmp_path):
    data_dir = str(tmp_path / "data")
    proc, url = start_daemon(data_dir)
    try:
        client = ServeClient(url)
        # the first job runs for about two seconds on the reference
        # engine, so the one worker thread is still measuring it, with
        # the three distinct jobs behind it queued, when the kill lands
        # three HTTP round trips later
        jobs = [{"arch": "risc16", "workloads": ["sum:12000"],
                 "backend": "xsim", "max_steps": 200_000}]
        jobs += [{"arch": "spam2", "workloads": [f"sum:{size}"],
                  "backend": "block", "max_steps": 200_000}
                 for size in (96, 128, 160)]
        ids = []
        for job in jobs:
            record = client.submit(dict(job, timeout_s=30.0))
            assert record["state"] in ("queued", "running"), record
            ids.append(record["id"])
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10.0)
    finally:
        stop_daemon(proc)
    _, live = JobJournal(os.path.join(data_dir, "journal.jsonl")).load()
    assert live, "every job finished before the kill"
    assert set(live) <= set(ids)

    proc, url = start_daemon(data_dir)
    try:
        client = ServeClient(url)
        for job_id in ids:
            record = client.wait(job_id, timeout=60.0)
            assert record["id"] == job_id
            assert record["state"] == "succeeded", record
        counters = client.health()["counters"]
        assert counters.get("serve.jobs_replayed") == len(live)
    finally:
        stop_daemon(proc)
