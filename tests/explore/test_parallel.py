"""Tests for the parallel cache-backed evaluation engine."""

import pytest

from repro.arch import description_for
from repro.cache import ArtifactCache
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.codegen.kernels import resolve_kernels
from repro.explore import (
    CostWeights,
    EvalRequest,
    Explorer,
    ParallelEvaluator,
)
from repro.explore import parallel
from repro.explore.parallel import _worker_cache_entries
from repro.isdl import fingerprint
from repro.tech import TechSpec


def sum_kernel(n=6):
    K = KernelBuilder("sum")
    cnt = K.li(n)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    return K.build()


def requests():
    return [
        EvalRequest(description_for("risc16"), "initial"),
        EvalRequest(description_for("spam"), "initial"),
        EvalRequest(description_for("acc8"), "initial"),
    ]


@pytest.fixture(scope="module")
def serial_results():
    with ParallelEvaluator([sum_kernel()], mode="serial") as ev:
        return ev.evaluate_many(requests())


@pytest.mark.parametrize("mode", ["process"])
def test_pool_modes_match_serial_results(mode, serial_results):
    with ParallelEvaluator([sum_kernel()], mode=mode) as evaluator:
        results = evaluator.evaluate_many(requests())
    assert [r.index for r in results] == [0, 1, 2]
    for got, want in zip(results, serial_results):
        assert got.ok and want.ok
        assert got.label == want.label
        assert got.evaluation.feasible == want.evaluation.feasible
        assert got.evaluation.cycles == want.evaluation.cycles
        assert got.evaluation.die_size == want.evaluation.die_size
        assert got.evaluation.cost() == want.evaluation.cost()


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_failed_candidate_is_recorded_not_raised(mode):
    batch = [
        EvalRequest(description_for("risc16"), "good"),
        EvalRequest("not a description", "broken"),
        EvalRequest(description_for("risc16"), "good-too"),
    ]
    with ParallelEvaluator([sum_kernel()], mode=mode) as evaluator:
        results = evaluator.evaluate_many(batch)
    assert len(results) == 3
    assert results[0].ok and results[0].evaluation.feasible
    assert not results[1].ok
    assert results[1].error
    assert results[2].ok and results[2].evaluation.feasible


def test_process_batch_is_one_task_per_worker(monkeypatch):
    archs = ("risc16", "spam", "acc8", "spam2", "risc16")
    batch = [EvalRequest(description_for(arch), label=f"{arch}-{i}")
             for i, arch in enumerate(archs)]
    submitted = []
    with ParallelEvaluator([sum_kernel()], mode="process",
                           max_workers=2) as evaluator:
        pool = evaluator._ensure_pool()
        real_submit = pool.submit

        def submit(fn, *args):
            submitted.append(args)
            return real_submit(fn, *args)

        monkeypatch.setattr(pool, "submit", submit)
        results = evaluator.evaluate_many(batch)
    # interleaved chunks: each worker gets a share of the batch
    assert [[task[0] for task in chunk] for (chunk,) in submitted] == [
        [0, 2, 4], [1, 3],
    ]
    assert [r.index for r in results] == [0, 1, 2, 3, 4]
    assert all(r.ok for r in results)
    # each worker-side outcome landed on its own request
    assert [r.evaluation.name for r in results] == [r.label for r in batch]


def test_unpicklable_candidate_fails_alone():
    batch = [
        EvalRequest(description_for("risc16"), label="a"),
        EvalRequest(lambda: None, label="unpicklable"),
        EvalRequest(description_for("spam"), label="b"),
        EvalRequest(description_for("acc8"), label="c"),
    ]
    with ParallelEvaluator([sum_kernel()], mode="process",
                           max_workers=2) as evaluator:
        results = evaluator.evaluate_many(batch)
    # the chunk that could not be pickled is measured inline instead
    assert [r.ok for r in results] == [True, False, True, True]
    assert results[1].error
    assert [r.evaluation.name for r in results if r.ok] == ["a", "b", "c"]


def test_warm_cache_skips_dispatch():
    cache = ArtifactCache()
    kernels = [sum_kernel()]
    with ParallelEvaluator(kernels, cache=cache, mode="serial") as ev:
        first = ev.evaluate_many(requests())
        assert all(not r.cached for r in first)
        second = ev.evaluate_many(requests())
    assert all(r.cached for r in second)
    for got, want in zip(second, first):
        assert got.evaluation.cycles == want.evaluation.cycles


def test_process_results_warm_the_parent_cache():
    cache = ArtifactCache()
    kernels = [sum_kernel()]
    with ParallelEvaluator(kernels, cache=cache, mode="process") as ev:
        ev.evaluate_many(requests())
        again = ev.evaluate_many(requests())
    assert all(r.cached for r in again)
    assert cache.stats.hits_by_kind["evaluation"] >= 3


def test_weights_travel_with_evaluations():
    weights = CostWeights(1.0, 0.0, 0.0)
    with ParallelEvaluator(
        [sum_kernel()], weights=weights, mode="serial"
    ) as ev:
        (result,) = ev.evaluate_many(
            [EvalRequest(description_for("risc16"))]
        )
    assert result.evaluation.weights == weights
    # Evaluation.cost() now defaults to the attached weights
    assert result.evaluation.cost() == result.evaluation.cost(weights)


# ----------------------------------------------------------------------
# Explorer integration
# ----------------------------------------------------------------------


def test_explorer_parallel_matches_seed_serial_engine():
    kernels = [sum_kernel()]
    weights = CostWeights(1.0, 0.5, 0.3)
    serial = Explorer(
        kernels, weights,
        evaluator=ParallelEvaluator(
            kernels, weights=weights, cache=None, mode="serial"
        ),
    ).explore(description_for("spam"), max_iterations=2)
    parallel = Explorer(kernels, weights).explore(
        description_for("spam"), max_iterations=2
    )
    assert fingerprint(serial.best.desc) == fingerprint(parallel.best.desc)
    assert serial.best.evaluation.cycles == parallel.best.evaluation.cycles
    assert [c.derived_by for c in serial.accepted] == [
        c.derived_by for c in parallel.accepted
    ]
    assert [c.cost(weights) for c in serial.accepted] == [
        c.cost(weights) for c in parallel.accepted
    ]


def test_explorer_records_candidate_errors_without_aborting():
    kernels = [sum_kernel()]

    class Sabotaged(ParallelEvaluator):
        """Blow up the first proposal of every round."""

        def evaluate_many(self, reqs):
            results = super().evaluate_many(reqs)
            if results:
                first = results[0]
                first.error = "RuntimeError: injected tool-chain crash"
                first.evaluation = None
            return results

    explorer = Explorer(
        kernels,
        evaluator=Sabotaged(kernels, cache=ArtifactCache(), mode="serial"),
    )
    log = explorer.explore(description_for("spam"), max_iterations=2)
    assert log.errors, "sabotaged candidates should be recorded"
    assert all(r.error for r in log.errors)
    assert log.accepted, "the sweep itself must still complete"


def test_explorer_cache_shared_across_explore_calls():
    kernels = [sum_kernel()]
    explorer = Explorer(kernels, parallel="serial")
    explorer.explore(description_for("spam"), max_iterations=2)
    baseline_hits = explorer.cache.stats.hits_by_kind["evaluation"]
    explorer.explore(description_for("spam"), max_iterations=2)
    assert (
        explorer.cache.stats.hits_by_kind["evaluation"] > baseline_hits
    ), "the second sweep should ride the first sweep's cache"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ParallelEvaluator([sum_kernel()], mode="quantum")


def test_auto_mode_runs_serially_where_processes_cannot_start(monkeypatch):
    import multiprocessing

    def unavailable(*args, **kwargs):
        raise OSError("no process support")

    monkeypatch.setattr(multiprocessing, "get_context", unavailable)
    with ParallelEvaluator([sum_kernel()], mode="auto") as evaluator:
        results = evaluator.evaluate_many(requests())
        assert evaluator._pool is None
    assert all(r.ok for r in results)


# ----------------------------------------------------------------------
# Simulator backend selection
# ----------------------------------------------------------------------


def assert_cycles_match_xsim(**options):
    kernels = [sum_kernel()]
    with ParallelEvaluator(kernels, mode="serial",
                           sim_backend="xsim") as ref, \
            ParallelEvaluator(kernels, mode="serial", **options) as fast:
        want = ref.evaluate_many(requests())
        got = fast.evaluate_many(requests())
    for a, b in zip(got, want):
        assert a.ok and b.ok
        assert a.evaluation.cycles == b.evaluation.cycles
        assert a.evaluation.stall_cycles == b.evaluation.stall_cycles
        assert a.evaluation.per_kernel_cycles == b.evaluation.per_kernel_cycles


def test_default_backend_matches_xsim_cycles():
    assert_cycles_match_xsim()


def test_block_backend_matches_xsim_cycles():
    # a served job naming "block" is measured through a serial evaluator
    # built with that name, which runs the compiled engine
    assert_cycles_match_xsim(sim_backend="block")


def test_backend_is_part_of_the_evaluation_key():
    cache = ArtifactCache()
    kernels = [sum_kernel()]
    desc = description_for("risc16")
    with ParallelEvaluator(kernels, cache=cache, mode="serial") as ev:
        ev.evaluate_many([EvalRequest(desc)])
    with ParallelEvaluator(kernels, cache=cache, mode="serial",
                           sim_backend="xsim") as ev:
        (result,) = ev.evaluate_many([EvalRequest(desc)])
    # a different backend is a different measurement, not a cache hit
    assert not result.cached
    assert cache.stats.misses_by_kind["evaluation"] == 2


# ----------------------------------------------------------------------
# Pool worker caches
# ----------------------------------------------------------------------


def _greedy(explorer):
    log = explorer.explore(description_for("spam"), max_iterations=8)
    assert not log.errors, log.errors
    return ([c.derived_by for c in log.accepted],
            fingerprint(log.best.desc), log.evaluations)


def _tech(explorer):
    specs = [None] + [TechSpec(node, flavor) for node in (10, 16, 22, 32)
                      for flavor in ("HP", "LP")]
    return [(c.evaluation.cycles, c.evaluation.cycle_ns, c.evaluation.die_size,
             c.evaluation.power_mw, c.evaluation.cost())
            for c in explorer.tech_sweep(description_for("spam"), specs)]


@pytest.mark.parametrize("sweep", [_greedy, _tech], ids=["greedy", "tech"])
def test_worker_cache_bound_keeps_every_hit(sweep):
    # a pool worker measures through a serial evaluator over a cache of
    # _worker_cache_entries; at that bound a sweep reads back everything
    # a large cache would, and measures the same
    kernels = resolve_kernels(["sum:10", "blockmove:8"])
    outcomes = {}
    for entries in (_worker_cache_entries(len(kernels)), 512):
        cache = ArtifactCache(max_entries=entries)
        evaluator = ParallelEvaluator(kernels, cache=cache, mode="serial")
        result = sweep(Explorer(kernels, evaluator=evaluator))
        outcomes[entries] = (result, dict(cache.stats.hits_by_kind))
    (bounded, hits), (reference, reference_hits) = outcomes.values()
    assert bounded == reference
    assert hits == reference_hits
    if sweep is _greedy:
        # every measured candidate's evaluation reads its gate's table
        assert hits == {"sigtable": bounded[2]}
    else:
        # the other eight points share the first one's artifacts
        assert (hits["program"], hits["sim"], hits["synth"]) == (16, 16, 8)


def test_pool_worker_cache_is_sized_by_its_kernels(monkeypatch):
    # _pool_init, run in-process here, is what each pool worker runs
    monkeypatch.setattr(parallel, "_WORKER_STATE", {})
    sizes = {}
    for specs in (["sum:10"], ["sum:10", "blockmove:8"]):
        kernels = resolve_kernels(specs)
        parallel._pool_init(kernels, 500_000, None, False, "compiled",
                            True, True)
        evaluator = parallel._WORKER_STATE["evaluator"]
        assert evaluator.mode == "serial"
        sizes[len(kernels)] = evaluator.cache.max_entries
    assert sizes == {n: _worker_cache_entries(n) for n in (1, 2)}
    assert sizes[1] < sizes[2] < 128
