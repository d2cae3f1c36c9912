"""Figure 1 — architecture exploration by iterative improvement.

One full turn of the crank the paper's methodology enables: retarget the
compiler, simulate, synthesize, cost, transform, repeat.  Measured: the
wall-clock of a complete multi-candidate exploration (the rapid-evaluation
claim of §1), the cost improvement it finds when specialising the 4-way FP
SPAM for an integer workload, and the speedup of the parallel
cache-backed evaluation engine over the seed's serial from-scratch path —
with bit-true identical trajectories.
"""

import time

from conftest import record, record_json

from repro import obs
from repro.arch import description_for
from repro.cache import ArtifactCache
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.explore import CostWeights, Explorer, ParallelEvaluator
from repro.isdl import fingerprint


def _kernels():
    K = KernelBuilder("sum")
    cnt = K.li(10)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    sum_kernel = K.build()

    K = KernelBuilder("memcpy")
    src = K.li(0)
    dst = K.li(32)
    cnt = K.li(8)
    K.label("loop")
    K.store(dst, K.load(src))
    K.binary_into(src, Opcode.ADD, src, 1)
    K.binary_into(dst, Opcode.ADD, dst, 1)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    memcpy = K.build()
    return [sum_kernel, memcpy]


def test_exploration_loop(benchmark):
    kernels = _kernels()

    def explore():
        explorer = Explorer(kernels, CostWeights(1.0, 0.5, 0.3))
        return explorer.explore(
            description_for("spam"), max_iterations=3
        )

    log = benchmark.pedantic(explore, rounds=2, iterations=1)
    candidates = len(log.accepted) + len(log.rejected)
    record(
        "Figure 1 — exploration by iterative improvement",
        f"- specialising SPAM for integer kernels:"
        f" {log.iterations} iterations,"
        f" {candidates}+ candidates evaluated"
        f" (each = compile + simulate + synthesize),"
        f" **{log.improvement:.2f}x** cost reduction,"
        f" {benchmark.stats.stats.mean:.1f} s per full exploration",
    )
    first = log.accepted[0].evaluation
    best = log.best.evaluation
    record(
        "Figure 1 — exploration by iterative improvement",
        f"- initial: {first.summary()}",
    )
    record(
        "Figure 1 — exploration by iterative improvement",
        f"- final:   {best.summary()}"
        f" (derived by: {' → '.join(c.derived_by for c in log.accepted[1:])})",
    )
    assert log.improvement > 1.0
    assert best.die_size < first.die_size

    # one instrumented re-run feeds the machine-readable result: the same
    # sweep with repro.obs on, its merged profile attached to the payload
    obs.enable(registry=obs.MetricsRegistry())
    try:
        obs_log = Explorer(kernels, CostWeights(1.0, 0.5, 0.3)).explore(
            description_for("spam"), max_iterations=3
        )
        snapshot = obs.registry().snapshot()
    finally:
        obs.disable(reset=True)
    record_json("exploration", {
        "config": {"arch": "spam", "max_iterations": 3,
                   "kernels": [k.name for k in kernels]},
        "mean_seconds": benchmark.stats.stats.mean,
        "iterations": log.iterations,
        "candidates": candidates,
        "improvement": log.improvement,
        "obs": snapshot.to_dict(),
        "obs_profiled_candidates": len(obs_log.profiles),
    })


def test_parallel_engine_speedup(benchmark):
    """Serial-vs-parallel and cold-vs-warm-cache engine comparison.

    The same sweep runs three ways: the seed's serial no-cache path, the
    parallel engine with a cold cache, and the parallel engine re-using
    that cache (the steady state inside a long exploration campaign).
    Results must be bit-true identical; the warm engine must be ≥2x
    faster than the seed path.
    """
    kernels = _kernels()
    weights = CostWeights(1.0, 0.5, 0.3)
    initial = description_for("spam")

    def sweep(explorer):
        start = time.perf_counter()
        log = explorer.explore(initial, max_iterations=3)
        return log, time.perf_counter() - start

    serial = Explorer(
        kernels, weights,
        evaluator=ParallelEvaluator(
            kernels, weights=weights, cache=None, mode="serial"
        ),
    )
    serial_log, serial_s = sweep(serial)

    cache = ArtifactCache()
    cold_log, cold_s = sweep(Explorer(kernels, weights, cache=cache))
    warm_log = benchmark.pedantic(
        lambda: Explorer(kernels, weights, cache=cache).explore(
            initial, max_iterations=3
        ),
        rounds=2, iterations=1,
    )
    warm_s = benchmark.stats.stats.mean

    # bit-true: same chosen architecture, same cycle counts, same path
    for log in (cold_log, warm_log):
        assert fingerprint(log.best.desc) == fingerprint(serial_log.best.desc)
        assert log.best.evaluation.cycles == serial_log.best.evaluation.cycles
        assert [c.derived_by for c in log.accepted] == [
            c.derived_by for c in serial_log.accepted
        ]
        assert not log.errors

    warm_speedup = serial_s / warm_s
    record(
        "Parallel cache-backed exploration engine",
        f"- seed serial path: {serial_s:.2f} s;"
        f" parallel cold cache: {cold_s:.2f} s;"
        f" parallel warm cache: {warm_s:.3f} s"
        f" (**{warm_speedup:.1f}x** vs seed)",
    )
    record(
        "Parallel cache-backed exploration engine",
        f"- identical trajectories, best = {serial_log.best.desc.name},"
        f" {serial_log.best.evaluation.cycles} cycles;"
        f" {cache.stats.hits} cache hits /"
        f" {cache.stats.misses} misses"
        f" ({cache.stats.hit_rate * 100:.0f}%)",
    )
    assert warm_speedup >= 2.0
    assert cache.stats.hits > 0
    record_json("exploration_engine", {
        "config": {"arch": "spam", "max_iterations": 3},
        "serial_seconds": serial_s,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "warm_speedup": warm_speedup,
        "cache_hits": cache.stats.hits,
        "cache_misses": cache.stats.misses,
        "cache_hit_rate": cache.stats.hit_rate,
    })

