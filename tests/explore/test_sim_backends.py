"""The measured cost of a candidate does not depend on the simulator.

Every backend derives its statistics from per-address execution counts,
so ``evaluate`` returns the same cycles, utilization, power and cost on
``xsim``, ``compiled`` and ``block`` — and the same verdict, with the same
reason, for a candidate one of them cannot run.  Candidates are measured
on ``compiled`` unless a caller names another engine; ``xsim`` is the
reference the default is checked against.
"""

import pytest

from repro.arch import description_for
from repro.cache import ArtifactCache, kernel_fingerprint
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.codegen.kernels import resolve_kernels
from repro.explore import ParallelEvaluator, evaluate, evaluation_key
from repro.explore.metrics import _CHECK_FIELDS
from repro.explore.transforms import resize_memory
from repro.isdl import fingerprint

BACKENDS = ("xsim", "compiled", "block")
KERNELS = ("sum:10", "blockmove:8")


@pytest.fixture(scope="module")
def kernels():
    return resolve_kernels(list(KERNELS))


@pytest.mark.parametrize("arch", ["spam", "spam2", "risc16"])
def test_evaluation_is_backend_independent(arch, kernels):
    desc = description_for(arch)
    cache = ArtifactCache()
    runs = {backend: {"sim_backend": backend} for backend in BACKENDS}
    runs["default"] = {"cache": cache}
    seen = {}
    for run, options in runs.items():
        evaluation = evaluate(desc, kernels, **options)
        assert evaluation.feasible, evaluation.reason
        seen[run] = (
            evaluation.power_mw, evaluation.cost(),
            evaluation.stats.op_counts, evaluation.stats.field_busy,
        ) + tuple(getattr(evaluation, name) for name in _CHECK_FIELDS)
    assert seen["xsim"][2], "no operation was counted"
    for run in ("compiled", "block", "default"):
        assert seen[run] == seen["xsim"], run
    # every kernel of the default evaluation ran on the compiled engine
    for kernel in kernels:
        key = (fingerprint(desc), kernel_fingerprint(kernel), 500_000,
               "compiled")
        assert cache.peek("sim", key) is not None, kernel.name


def test_stats_total_every_kernel(kernels):
    evaluation = evaluate(description_for("spam"), kernels)
    assert len(evaluation.per_kernel_cycles) == 2
    assert evaluation.stats.cycles == evaluation.cycles
    assert evaluation.stats.stall_cycles == evaluation.stall_cycles
    assert evaluation.stats.cycles == sum(
        evaluation.per_kernel_cycles.values()
    )


@pytest.mark.parametrize("arch,storage,depth,reason", [
    ("risc16", "DM", 64,
     "kernel 'blockmove8': index 64 out of range for 'DM' (depth 64)"),
    ("spam2", "IM", 8,
     "kernel 'blockmove8': program does not fit: address 8 exceeds"
     " instruction memory depth 8"),
], ids=["index-past-the-end", "program-larger-than-im"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_unrunnable_candidate_is_infeasible_on_every_backend(
        backend, arch, storage, depth, reason, kernels):
    desc = resize_memory(description_for(arch), storage, depth)
    evaluation = evaluate(desc, kernels, sim_backend=backend)
    assert not evaluation.feasible
    assert evaluation.reason == reason


def test_evaluate_stores_its_evaluation_under_the_compiled_engine(kernels):
    desc = description_for("spam")
    cache = ArtifactCache()
    evaluate(desc, kernels, cache=cache)
    key = evaluation_key(desc, kernels, 500_000, sim_backend="compiled")
    assert cache.peek("evaluation", key) is not None
    key = evaluation_key(desc, kernels, 500_000, sim_backend="xsim")
    assert cache.peek("evaluation", key) is None


def test_parallel_evaluator_defaults_to_the_compiled_engine(kernels):
    assert ParallelEvaluator(kernels).sim_backend == "compiled"



def sum_kernel(n=6, name="sum"):
    K = KernelBuilder(name)
    cnt = K.li(n)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    return K.build()


def assert_same_evaluation(first, second):
    for name in _CHECK_FIELDS:
        assert getattr(first, name) == getattr(second, name), name


def test_cached_stats_not_mutated_by_merge():
    """Merging per-kernel stats must copy — a second evaluation pulling
    the same cached sim result has to see pristine numbers."""
    desc = description_for("risc16")
    kernels = [sum_kernel(), sum_kernel(4, name="sum4")]
    cache = ArtifactCache()
    first = evaluate(desc, kernels, cache=cache, memoize=False)
    second = evaluate(desc, kernels, cache=cache, memoize=False)
    assert_same_evaluation(first, second)
    assert first.stats == second.stats
