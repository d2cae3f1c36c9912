"""Tests for the compiled-code simulator (paper §6.2 future work).

The compiled simulator must be indistinguishable from the interpretive XSIM
in cycle counts and final architectural state on every workload.
"""

import pytest

from repro.arch import (
    ARCHITECTURES,
    all_workloads,
    description_for,
    run_workload,
)
from repro.asm import Assembler
from repro.errors import SimulationError
from repro.gensim.compiled import CompiledSimulator

CASES = [(w.arch, w) for w in all_workloads()]


def run_compiled(workload):
    desc = description_for(workload.arch)
    sim = CompiledSimulator(desc)
    for storage, contents in workload.preload.items():
        for index, value in contents.items():
            sim.write(storage, value, index)
    program = Assembler(desc).assemble(workload.source)
    sim.load_words(program.words, program.origin)
    stats = sim.run()
    return sim, stats


@pytest.mark.parametrize(
    "arch,workload", CASES, ids=[f"{a}-{w.name}" for a, w in CASES]
)
def test_matches_interpretive_simulator(arch, workload):
    reference = run_workload(workload)
    compiled, stats = run_compiled(workload)
    assert stats.cycles == reference.stats.cycles
    assert stats.instructions == reference.stats.instructions
    assert stats.stall_cycles == reference.stats.stall_cycles
    assert (stats.op_counts, stats.field_busy) == (
        reference.stats.op_counts, reference.stats.field_busy
    )
    desc = description_for(arch)
    for storage in desc.storages.values():
        if storage.addressed:
            for index in range(storage.depth):
                assert compiled.read(storage.name, index) == reference.read(
                    storage.name, index
                ), f"{storage.name}[{index}]"
        else:
            assert compiled.read(storage.name) == reference.read(
                storage.name
            ), storage.name


def test_expected_results_hold(risc16_desc):
    from repro.arch.workloads import risc16_sum_loop

    workload = risc16_sum_loop(12)
    compiled, _ = run_compiled(workload)
    assert compiled.read("DM", 0) == 78


def test_non_halting_program_raises(risc16_desc):
    sim = CompiledSimulator(risc16_desc)
    program = Assembler(risc16_desc).assemble("loop: jmp loop\n")
    sim.load_words(program.words)
    with pytest.raises(SimulationError):
        sim.run(max_steps=100)


def test_compiled_is_faster_than_interpretive():
    """The whole point of the mode (paper §6.2) — measured, not assumed."""
    import time

    from repro.arch import prepare
    from repro.arch.workloads import risc16_dot_product

    workload = risc16_dot_product()

    interp, _ = prepare(workload)
    start = time.perf_counter()
    interp.run_to_completion()
    interp_time = time.perf_counter() - start

    compiled, _ = run_compiled(workload)  # warm: includes load+run
    desc = description_for(workload.arch)
    sim = CompiledSimulator(desc)
    for storage, contents in workload.preload.items():
        for index, value in contents.items():
            sim.write(storage, value, index)
    program = Assembler(desc).assemble(workload.source)
    sim.load_words(program.words, program.origin)
    start = time.perf_counter()
    sim.run()
    compiled_time = time.perf_counter() - start
    assert compiled_time < interp_time
