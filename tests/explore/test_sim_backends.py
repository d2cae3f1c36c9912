"""The measured cost of a candidate does not depend on the simulator.

Every backend derives its statistics from per-address execution counts,
so ``evaluate`` returns the same cycles, utilization, power and cost on
``xsim``, ``compiled`` and ``block`` — and the same verdict, with the same
reason, for a candidate one of them cannot run.
"""

import pytest

from repro.arch import description_for
from repro.codegen.kernels import resolve_kernels
from repro.explore import evaluate
from repro.explore.transforms import resize_memory

BACKENDS = ("xsim", "compiled", "block")
KERNELS = ("sum:10", "blockmove:8")


@pytest.fixture(scope="module")
def kernels():
    return resolve_kernels(list(KERNELS))


@pytest.mark.parametrize("arch", ["spam", "spam2", "risc16"])
def test_evaluation_is_backend_independent(arch, kernels):
    desc = description_for(arch)
    seen = {}
    for backend in BACKENDS:
        evaluation = evaluate(desc, kernels, sim_backend=backend)
        assert evaluation.feasible, evaluation.reason
        seen[backend] = (
            evaluation.power_mw, evaluation.cost(),
            evaluation.stats.op_counts, evaluation.stats.field_busy,
        )
    assert seen["xsim"][2], "no operation was counted"
    assert seen["compiled"] == seen["xsim"]
    assert seen["block"] == seen["xsim"]


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
