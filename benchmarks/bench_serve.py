"""Evaluation-service throughput: coalescing versus a no-dedup baseline.

A duplicate-heavy burst — 32 jobs over only 4 unique candidates, the
shape of many exploration clients racing over a shared frontier — is
driven over HTTP twice: once against a default service (in-flight
coalescing + shared evaluation memo) and once against a baseline with
both forms of dedup off, so every duplicate pays a full measurement.

Each client fires its submissions first and polls afterwards, the way a
batch driver does, so duplicates really are in flight together.

Measured: jobs/s throughput, client-observed p50/p95 job latency, the
coalescing hit rate, and — via the service's own counters — that the
coalesced run performs *exactly one* toolchain evaluation per unique
candidate.  ``REPRO_BENCH_SMOKE=1`` shrinks the workload for a fast
low-confidence run (CI smoke mode).
"""

import os
import threading
import time

from conftest import record, record_json

from repro.serve import (
    EvaluationService,
    ServeClient,
    ServiceConfig,
    serve_in_thread,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: 4 unique candidates ...
CANDIDATES = ("spam2", "spam", "risc16", "acc8")
#: ... duplicated across 8 clients = a 32-job burst
CLIENTS = 8
#: sized so the simulation re-run dominates the per-job cost — that is
#: exactly the work dedup saves
WORKLOADS = ["sum:200"] if SMOKE else ["sum:200", "blockmove:64"]
MAX_STEPS = 200_000


def _service_config(**overrides):
    base = dict(workers=4, max_queue_depth=64, static_check=False)
    base.update(overrides)
    return ServiceConfig(**base)


def _run_burst(config):
    """Drive the 32-job burst through HTTP; returns timing + counters."""
    service = EvaluationService(config)
    server, _ = serve_in_thread(service)
    latencies = []
    failures = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS)

    def client_thread(index):
        client = ServeClient(server.url, timeout=60.0)
        barrier.wait()
        submitted = []  # (job id, submit timestamp), fire first...
        for step in range(len(CANDIDATES)):
            arch = CANDIDATES[(index + step) % len(CANDIDATES)]
            begun = time.perf_counter()
            answer = client.submit(
                {"arch": arch, "workloads": WORKLOADS,
                 "max_steps": MAX_STEPS, "timeout_s": 120.0},
            )
            submitted.append((answer["id"], begun))
        for job_id, begun in submitted:  # ...poll afterwards
            record_ = client.wait(job_id, timeout=300.0,
                                  poll_initial_s=0.005)
            elapsed = time.perf_counter() - begun
            with lock:
                latencies.append(elapsed)
                if record_["state"] != "succeeded":
                    failures.append(record_)

    threads = [threading.Thread(target=client_thread, args=(i,))
               for i in range(CLIENTS)]
    begun = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begun
    counters = service.metrics_snapshot().counters
    server.shutdown_service(drain=True, timeout=30.0)
    assert not failures, failures[:3]
    return {
        "wall_s": wall,
        "jobs_per_s": len(latencies) / wall,
        "p50_ms": _percentile(latencies, 50) * 1000,
        "p95_ms": _percentile(latencies, 95) * 1000,
        "evaluations_run": int(counters.get("serve.evaluations_run", 0)),
        "jobs_accepted": int(counters.get("serve.jobs_accepted", 0)),
        "jobs_coalesced": int(counters.get("serve.jobs_coalesced", 0)),
    }


def _percentile(values, pct):
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(pct / 100 * (len(ordered) - 1)))
    return ordered[index]


def test_coalescing_throughput_vs_no_dedup_baseline():
    total = CLIENTS * len(CANDIDATES)
    coalesced = _run_burst(_service_config())
    baseline = _run_burst(_service_config(
        coalesce=False, share_evaluations=False,
    ))

    # dedup exactness: one toolchain evaluation per unique candidate,
    # every duplicate either coalesced in flight or served from cache
    assert coalesced["evaluations_run"] == len(CANDIDATES)
    assert coalesced["jobs_accepted"] + coalesced["jobs_coalesced"] \
        == total
    # the baseline honestly paid for every duplicate
    assert baseline["evaluations_run"] == total

    speedup = coalesced["jobs_per_s"] / baseline["jobs_per_s"]
    hit_rate = coalesced["jobs_coalesced"] / total
    assert speedup >= 2.0, (
        f"coalescing speedup {speedup:.2f}x < 2x"
        f" ({coalesced['jobs_per_s']:.1f} vs"
        f" {baseline['jobs_per_s']:.1f} jobs/s)"
    )

    table = "Evaluation service: 32-job burst, 4 unique candidates"
    record(table,
           f"- coalescing on:  {coalesced['jobs_per_s']:8.1f} jobs/s, "
           f"p50 {coalesced['p50_ms']:7.1f} ms, "
           f"p95 {coalesced['p95_ms']:7.1f} ms, "
           f"{coalesced['evaluations_run']} toolchain runs")
    record(table,
           f"- no-dedup base:  {baseline['jobs_per_s']:8.1f} jobs/s, "
           f"p50 {baseline['p50_ms']:7.1f} ms, "
           f"p95 {baseline['p95_ms']:7.1f} ms, "
           f"{baseline['evaluations_run']} toolchain runs")
    record(table,
           f"- speedup {speedup:.1f}x, in-flight coalescing hit rate"
           f" {hit_rate * 100:.0f}%")
    record_json("serve", {
        "jobs": total,
        "unique_candidates": len(CANDIDATES),
        "workloads": WORKLOADS,
        "smoke": SMOKE,
        "coalesced": coalesced,
        "baseline": baseline,
        "speedup": speedup,
        "coalescing_hit_rate": hit_rate,
    })
