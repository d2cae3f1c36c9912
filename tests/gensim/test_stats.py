"""One statistics path: every backend reports the same measurements.

Each simulator counts how many times each program address executed and
:meth:`SimulationStats.from_counts` derives the utilization counters from
those counts, so every executor — XSim, under both its names, and the
compiled simulator — must agree on every statistic and leave the same
state behind, and must fail the same way where the reference fails.
"""

from collections import Counter

import pytest

from repro.arch import all_workloads, description_for, risc16
from repro.asm import Assembler
from repro.codegen import Compiler
from repro.codegen.kernels import resolve_kernels
from repro.errors import SimulationError, StateError
from repro.explore.transforms import resize_memory
from repro.gensim import SimulationStats, XSim, simulator_for
from repro.isdl import load_string

EXECUTORS = ("xsim", "interpretive", "compiled")
FAST = ("xsim", "compiled")
FIELDS = ("cycles", "stall_cycles", "instructions", "op_counts",
          "field_busy")
KERNELS = ("sum:10", "blockmove:8", "sum:255", "blockmove:64")
#: perfbench's ``eval_sim`` kernels (``common.EVAL_KERNELS``), whose
#: loops run up to a hundred times longer than those of KERNELS
LONG_KERNELS = {
    "spam": ("sum:1000", "blockmove:256"),
    "spam2": ("blockmove:255",),  # its sum:255 is in KERNELS
    "risc16": ("sum:1000", "blockmove:256"),
}


def _cases():
    for workload in all_workloads():
        yield pytest.param(workload.arch, workload, id=f"{workload.arch}-"
                           f"{workload.name}")
    for arch, long_kernels in LONG_KERNELS.items():
        for kernel in resolve_kernels(list(KERNELS + long_kernels)):
            yield pytest.param(arch, kernel, id=f"{arch}-{kernel.name}")


def _program(desc, case):
    if hasattr(case, "source"):
        return Assembler(desc).assemble(case.source), case.preload
    return Compiler(desc).compile_to_words(case), {}


@pytest.mark.parametrize("arch,case", _cases())
def test_every_executor_reports_identical_statistics(arch, case):
    desc = description_for(arch)
    program, preload = _program(desc, case)
    seen = {}
    for executor in EXECUTORS:
        sim = simulator_for(desc, executor)
        for storage, contents in preload.items():
            for index, value in contents.items():
                sim.write(storage, value, index)
        sim.load_words(program.words, program.origin)
        result = sim.run_to_completion(500_000)
        seen[executor] = {name: getattr(result, name) for name in FIELDS}
        seen[executor]["state"] = {
            storage.name: [sim.read(storage.name, index)
                           for index in range(storage.depth)]
            if storage.addressed else sim.read(storage.name)
            for storage in desc.storages.values()
        }
    assert seen["xsim"]["op_counts"], "nothing was counted"
    for executor in EXECUTORS[1:]:
        assert seen[executor] == seen["xsim"], executor


def test_from_counts_weights_each_address_by_its_executions(risc16_desc):
    program = Assembler(risc16_desc).assemble(
        "ldi r1, #1\nadd r2, r1, r1\nhalt\n"
    )
    sim = XSim(risc16_desc)
    sim.load_words(program.words)
    stats = SimulationStats.from_counts(
        risc16_desc, sim.program.decoded, [3, 0, 1], cycles=9
    )
    assert stats.instructions == 4
    assert stats.cycles == 9
    assert stats.op_counts == Counter({("EX", "ldi"): 3, ("EX", "halt"): 1})
    assert stats.field_busy == Counter({"EX": 4})


def test_merge_totals_every_counter():
    one = SimulationStats(5, 1, 4, Counter({("F", "a"): 4}),
                          Counter({"F": 4}))
    two = SimulationStats(7, 2, 3, Counter({("F", "a"): 1, ("F", "b"): 2}),
                          Counter({"F": 2}))
    total = SimulationStats.merge([one, two])
    assert (total.cycles, total.stall_cycles, total.instructions) == (
        12, 3, 7
    )
    assert total.op_counts == Counter({("F", "a"): 5, ("F", "b"): 2})
    assert total.field_busy == Counter({"F": 6})
    assert one.op_counts == Counter({("F", "a"): 4})  # inputs untouched


@pytest.mark.parametrize("executor", FAST)
def test_negative_index_raises_state_error(executor):
    # ``ld`` reads DM[RF[a] - 1]: address 0 underflows to -1, which a
    # Python list would silently wrap to the last element
    source = risc16.ISDL_SOURCE.replace(
        "RF[d] <- DM[RF[a] & 0xFF];", "RF[d] <- DM[RF[a] - 1];"
    )
    desc = load_string(source, filename="risc16-underflow.isdl")
    program = Assembler(desc).assemble("ldi r1, #0\nld r2, (r1)\nhalt\n")
    sim = simulator_for(desc, executor)
    sim.load_words(program.words)
    with pytest.raises(StateError) as info:
        sim.run_to_completion(100)
    assert str(info.value) == "index -1 out of range for 'DM' (depth 256)"


@pytest.mark.parametrize("executor", FAST)
def test_store_past_the_end_raises_state_error(executor, risc16_desc):
    program = Assembler(risc16_desc).assemble(
        "ldi r1, #7\nst (r1), r1\nhalt\n"
    )
    desc = resize_memory(risc16_desc, "DM", 4)
    sim = simulator_for(desc, executor)
    sim.load_words(program.words)
    with pytest.raises(StateError) as info:
        sim.run_to_completion(100)
    assert str(info.value) == "index 7 out of range for 'DM' (depth 4)"


def test_non_halting_error_text_is_shared(risc16_desc):
    program = Assembler(risc16_desc).assemble("loop: jmp loop\n")
    messages = set()
    for executor in EXECUTORS:
        sim = simulator_for(risc16_desc, executor)
        sim.load_words(program.words)
        with pytest.raises(SimulationError) as info:
            sim.run_to_completion(50)
        messages.add(str(info.value))
    assert messages == {"program did not halt within 50 steps"}
