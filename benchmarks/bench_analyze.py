"""Static-analysis engine cost (repro.analyze).

Three questions, answered on the SPAM-2 description:

1. What does one full `analyze()` run cost cold, and what does the
   fingerprint-memoized `check_static()` path cost once the artifact
   cache is warm?
2. What does whole-program dataflow analysis (`program_facts`) cost
   over the workload programs?
3. What does the exploration validity gate add to a *serial* candidate
   sweep?  A sweep of distinct (mutated) candidates is evaluated twice
   on the same `ParallelEvaluator` configuration — gate on vs gate off,
   fresh caches each trial, best-of-N timing — and the relative
   overhead must stay under 5%.

``BENCH_analyze.json`` carries the machine-readable results.  Set
``REPRO_BENCH_SMOKE=1`` for a fast low-confidence run (CI smoke mode).
"""

import os
import time

from conftest import record, record_json

from repro.analyze import analyze, check_static, program_facts
from repro.arch import description_for
from repro.arch.workloads import workloads_for
from repro.asm import Assembler
from repro.cache import ArtifactCache
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.explore.parallel import EvalRequest, ParallelEvaluator
from repro.explore.transforms import narrow_register_file, resize_memory

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
TRIALS = 4 if not SMOKE else 1
REPEATS = 50 if not SMOKE else 10
TABLE = "Static analysis (SPAM-2)"

MAX_GATE_OVERHEAD = 0.05

_results = {}


def _sum_kernel(name, count):
    builder = KernelBuilder(name)
    cnt = builder.li(count)
    acc = builder.li(0)
    builder.label("loop")
    builder.binary_into(acc, Opcode.ADD, acc, cnt)
    builder.binary_into(cnt, Opcode.SUB, cnt, 1)
    builder.cbr(Cond.NE, cnt, 0, "loop")
    builder.store(builder.li(0), acc)
    return builder.build()


def _kernels():
    counts = (40, 60, 80, 100, 120, 140, 160, 180)
    return [_sum_kernel(f"sum{n}", n) for n in counts]


def _candidates():
    """Four structurally distinct, valid SPAM-2 derivatives."""
    base = description_for("spam2")
    return [
        EvalRequest(base, "initial"),
        EvalRequest(narrow_register_file(base, 4), "narrow_rf"),
        EvalRequest(resize_memory(base, "DM", 128), "resize_dm"),
        EvalRequest(resize_memory(base, "IM", 256), "resize_im"),
    ]


def _best_of(fn, trials):
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_cold_vs_fingerprint_cached_analysis():
    desc = description_for("spam2")
    cold = _best_of(lambda: analyze(desc), TRIALS * 3) / 1  # one run timed

    cache = ArtifactCache()
    first = check_static(desc, cache=cache)  # populate the cache
    assert first.ok()

    def warm():
        for _ in range(REPEATS):
            check_static(desc, cache=cache)

    cached = _best_of(warm, TRIALS) / REPEATS
    assert cache.stats.hits_by_kind["analysis"] >= REPEATS

    speedup = cold / cached if cached else float("inf")
    _results["analysis_cold_s"] = cold
    _results["analysis_cached_s"] = cached
    _results["analysis_cache_speedup"] = speedup
    record(TABLE, f"* full `analyze()` cold: {cold * 1e3:.2f} ms; "
                  f"fingerprint-cached `check_static()`: "
                  f"{cached * 1e6:.1f} us ({speedup:.0f}x)")
    # a warm gate consult must be far cheaper than a cold analysis run
    assert cached < cold
    assert speedup > 5, f"memoization buys only {speedup:.1f}x"


def _workload_programs(arch):
    desc = description_for(arch)
    assembler = Assembler(desc)
    programs = []
    for workload in workloads_for(arch):
        program = assembler.assemble(workload.source,
                                     filename=f"{workload.name}.s")
        programs.append((workload.name, tuple(program.words),
                         program.origin))
    return desc, programs


def test_dataflow_cost():
    desc, programs = _workload_programs("spam2")

    def facts():
        for name, words, origin in programs:
            program_facts(desc, words, origin, name=name)

    cold_t = _best_of(facts, TRIALS * 2)
    _results["dataflow_cold_s"] = cold_t
    _results["dataflow_programs"] = len(programs)
    record(TABLE, f"* `program_facts` over {len(programs)} workloads: "
                  f"{cold_t * 1e3:.2f} ms")


def test_gate_overhead_on_serial_sweep():
    kernels = _kernels()
    requests = _candidates()

    def sweep(static_check):
        evaluator = ParallelEvaluator(
            kernels, cache=ArtifactCache(), mode="serial",
            static_check=static_check,
        )
        results = evaluator.evaluate_many(requests)
        assert all(r.ok for r in results), [r.error for r in results]

    # warm each flavour once so lazy imports land outside the timed
    # region, then interleave trials ABBA-style so drift in machine
    # speed hits both flavours equally; min-of-many damps the rest
    sweep(True)
    sweep(False)
    times = {True: [], False: []}
    for _ in range(TRIALS):
        for flag in (True, False, False, True):
            start = time.perf_counter()
            sweep(flag)
            times[flag].append(time.perf_counter() - start)
    gated = min(times[True])
    ungated = min(times[False])

    # The gate's true cost is a few ms against a few hundred ms of
    # evaluation, so the paired difference of two large timings is
    # noise-dominated on a shared machine.  Assert instead on a direct,
    # conservative upper bound: the full cold gate work for the sweep
    # (fresh cache, every candidate analysed from scratch — in the real
    # sweep the signature table it builds is even reused by evaluation)
    # over the ungated sweep time.
    def gate_work():
        cache = ArtifactCache()
        for request in requests:
            check_static(request.desc, cache=cache)

    gate = _best_of(gate_work, TRIALS * 2)
    overhead = gate / ungated
    _results["sweep_gated_s"] = gated
    _results["sweep_ungated_s"] = ungated
    _results["gate_work_s"] = gate
    _results["gate_overhead"] = overhead
    _results["paired_overhead"] = (gated - ungated) / ungated
    _results["candidates"] = len(requests)
    _results["kernels"] = len(kernels)
    record(TABLE, f"* validity gate on a serial {len(requests)}-candidate "
                  f"sweep: {gate * 1e3:.1f} ms of gate work against "
                  f"{ungated * 1e3:.1f} ms of evaluation "
                  f"({overhead:.1%} overhead)")
    record_json("analyze", dict(_results, smoke=SMOKE))
    assert overhead < MAX_GATE_OVERHEAD, (
        f"static-analysis gate costs {overhead:.1%} on a serial sweep"
        f" (budget {MAX_GATE_OVERHEAD:.0%})"
    )
