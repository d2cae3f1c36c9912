"""The measured cost of a candidate does not depend on the simulator.

Every backend derives its statistics from per-address execution counts,
so ``evaluate`` returns the same cycles, utilization, power and cost on
``xsim`` and ``compiled`` — and the same verdict, with the same reason,
for a candidate one of them cannot run.  Candidates are measured
on ``compiled`` unless a caller names another engine; ``xsim`` is the
reference the default is checked against.
"""

import json
import os

import pytest

from repro.arch import description_for
from repro.cache import ArtifactCache, kernel_fingerprint
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.codegen.kernels import resolve_kernels
from repro.explore import ParallelEvaluator, evaluate, evaluation_key
from repro.explore.metrics import _CHECK_FIELDS
from repro.explore.transforms import resize_memory
from repro.isdl import fingerprint

BACKENDS = ("xsim", "compiled")
KERNELS = ("sum:10", "blockmove:8")
#: perfbench's ``eval_sim`` kernels (``common.EVAL_KERNELS``), whose
#: loops run up to a hundred times longer than those of KERNELS
EVAL_KERNELS = (("spam", "sum:1000"), ("spam", "blockmove:256"),
                ("spam2", "sum:255"), ("spam2", "blockmove:255"),
                ("risc16", "sum:1000"), ("risc16", "blockmove:256"))


@pytest.fixture(scope="module")
def kernels():
    return resolve_kernels(list(KERNELS))


def measured(evaluation):
    """What a feasible evaluation reports: power, cost, utilization and
    every checked field."""
    assert evaluation.feasible, evaluation.reason
    return (
        evaluation.power_mw, evaluation.cost(),
        evaluation.stats.op_counts, evaluation.stats.field_busy,
    ) + tuple(getattr(evaluation, name) for name in _CHECK_FIELDS)


@pytest.mark.parametrize("arch", ["spam", "spam2", "risc16"])
def test_evaluation_is_backend_independent(arch, kernels):
    desc = description_for(arch)
    cache = ArtifactCache()
    runs = {backend: {"sim_backend": backend} for backend in BACKENDS}
    runs["default"] = {"cache": cache}
    seen = {}
    for run, options in runs.items():
        seen[run] = measured(evaluate(desc, kernels, **options))
    assert seen["xsim"][2], "no operation was counted"
    for run in ("compiled", "default"):
        assert seen[run] == seen["xsim"], run
    # every kernel of the default evaluation ran on the compiled engine
    for kernel in kernels:
        key = (fingerprint(desc), kernel_fingerprint(kernel), 500_000,
               "compiled")
        assert cache.peek("sim", key) is not None, kernel.name


@pytest.mark.parametrize("arch,spec", EVAL_KERNELS, ids=[
    f"{arch}-{spec.replace(':', '')}" for arch, spec in EVAL_KERNELS])
def test_long_kernel_evaluation_is_backend_independent(arch, spec):
    # the evaluation perfbench's eval_sim times, one kernel at a time
    desc = description_for(arch)
    kernels = resolve_kernels([spec])
    seen = {backend: measured(evaluate(desc, kernels, cache=ArtifactCache(),
                                       sim_backend=backend))
            for backend in BACKENDS}
    assert seen["xsim"][2], "no operation was counted"
    assert seen["compiled"] == seen["xsim"]


EXPECTED = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "perfbench", "expected.json")


@pytest.mark.parametrize("arch", ["spam", "spam2", "risc16"])
def test_eval_sim_evaluation_reports_its_pinned_values(arch):
    # eval_sim checks each timed evaluation against these values, in a
    # kernel order its seed picks; both engines and both orders agree
    with open(EXPECTED, encoding="utf-8") as handle:
        want = json.load(handle)["eval_sim"][arch]
    specs = [spec for name, spec in EVAL_KERNELS if name == arch]
    desc = description_for(arch)
    for backend in BACKENDS:
        for order in (specs, specs[::-1]):
            evaluation = evaluate(desc, resolve_kernels(order),
                                  cache=ArtifactCache(), sim_backend=backend)
            got = {name: getattr(evaluation, name) for name in want}
            assert got == want, (backend, order)


def test_block_is_measured_on_the_compiled_engine_under_its_own_keys(
        kernels):
    # "block" is a second name of the compiled engine: the same
    # measurement, memoized under the name the caller gave
    desc = description_for("risc16")
    cache = ArtifactCache()
    block = evaluate(desc, kernels, cache=cache, sim_backend="block")
    assert measured(block) == measured(evaluate(desc, kernels,
                                                sim_backend="compiled"))
    key = evaluation_key(desc, kernels, 500_000, sim_backend="block")
    assert cache.peek("evaluation", key) is not None
    for kernel in kernels:
        key = (fingerprint(desc), kernel_fingerprint(kernel), 500_000,
               "block")
        assert cache.peek("sim", key) is not None, kernel.name
    key = evaluation_key(desc, kernels, 500_000, sim_backend="compiled")
    assert cache.peek("evaluation", key) is None


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
