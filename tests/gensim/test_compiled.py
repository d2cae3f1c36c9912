"""Tests for the compiled-code simulator (paper §6.2 future work).

The compiled simulator must be indistinguishable from the interpretive XSIM
in cycle counts and final architectural state on every workload and on
compiled kernels of any length, and at the edges of a run: the step
budget, a reload, a second program, a reset, a run after halt, and a
latency write still in flight when a branch is taken or the halt lands.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    ARCHITECTURES,
    all_workloads,
    description_for,
    run_workload,
)
from repro.arch.workloads import (
    acc8_sum_array,
    risc16_sum_loop,
    spam2_sum_loop,
)
from repro.asm import Assembler
from repro.codegen import Compiler
from repro.codegen.kernels import resolve_kernels
from repro.errors import SimulationError
from repro.gensim import XSim
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


def assert_state_matches(arch, sim, reference):
    desc = description_for(arch)
    for storage in desc.storages.values():
        if storage.addressed:
            for index in range(storage.depth):
                assert sim.read(storage.name, index) == reference.read(
                    storage.name, index
                ), f"{storage.name}[{index}]"
        else:
            assert sim.read(storage.name) == reference.read(
                storage.name
            ), storage.name


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
    assert_state_matches(arch, compiled, reference)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=1, max_value=40))  # the loop is do-while: n=0 is undefined
def test_property_risc16_sum_loop(n):
    workload = risc16_sum_loop(n)
    reference = run_workload(workload)
    compiled, stats = run_compiled(workload)
    assert stats.cycles == reference.stats.cycles
    assert compiled.read("DM", 0) == n * (n + 1) // 2
    assert_state_matches("risc16", compiled, reference)


@settings(max_examples=10, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=40),
                       min_size=1, max_size=8).map(tuple))
def test_property_acc8_sum_array(values):
    workload = acc8_sum_array(values)
    reference = run_workload(workload)
    compiled, _ = run_compiled(workload)
    assert_state_matches("acc8", compiled, reference)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=30))
def test_property_spam2_sum_loop(n):
    workload = spam2_sum_loop(n)
    reference = run_workload(workload)
    compiled, stats = run_compiled(workload)
    assert stats.cycles == reference.stats.cycles
    assert_state_matches("spam2", compiled, reference)


def run_kernel_on_both(arch, spec):
    """Compile one kernel spec and run it on XSim and on the compiled
    engine: ``[(xsim, result), (compiled, result)]``."""
    desc = description_for(arch)
    (kernel,) = resolve_kernels([spec])
    program = Compiler(desc).compile_to_words(kernel)
    runs = []
    for cls in (XSim, CompiledSimulator):
        sim = cls(desc)
        sim.load_words(program.words, program.origin)
        runs.append((sim, sim.run_to_completion(500_000)))
    return runs


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=200))
def test_property_spam_sum_kernel(n):
    (reference, want), (compiled, got) = run_kernel_on_both("spam",
                                                            f"sum:{n}")
    assert got == want
    assert_state_matches("spam", compiled, reference)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=64))
def test_property_risc16_blockmove_kernel(n):
    (reference, want), (compiled, got) = run_kernel_on_both(
        "risc16", f"blockmove:{n}")
    assert got == want
    assert_state_matches("risc16", compiled, reference)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=64))
def test_property_spam2_blockmove_kernel(n):
    (reference, want), (compiled, got) = run_kernel_on_both(
        "spam2", f"blockmove:{n}")
    assert got == want
    assert_state_matches("spam2", compiled, reference)


def test_expected_results_hold(risc16_desc):
    workload = risc16_sum_loop(12)
    compiled, _ = run_compiled(workload)
    assert compiled.read("DM", 0) == 78


def test_non_halting_program_raises(risc16_desc):
    # the run stops at the budget having counted what XSim counts
    program = Assembler(risc16_desc).assemble("loop: jmp loop\n")
    for budget in (1, 7, 100):
        counted = []
        for cls in (XSim, CompiledSimulator):
            sim = cls(risc16_desc)
            sim.load_words(program.words)
            with pytest.raises(SimulationError):
                sim.run_to_completion(max_steps=budget)
            counted.append((sim.stats.cycles, sim.stats.instructions))
        assert counted[0] == counted[1], f"max_steps={budget}"


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


# ---------------------------------------------------------------------------
# The edges of a run, against XSim
# ---------------------------------------------------------------------------


def test_max_steps_boundary_matches_xsim(risc16_desc):
    """Halting exactly at the step budget follows the interpretive
    scheduler's rule: the in-flight halt write is committed and the run
    counts as halted, not as a budget failure."""
    program = Assembler(risc16_desc).assemble("ldi r1, #5\nhalt\n")
    for budget in (1, 2, 3):
        outcomes = []
        for cls in (XSim, CompiledSimulator):
            sim = cls(risc16_desc)
            sim.load_words(program.words)
            try:
                sim.run_to_completion(max_steps=budget)
                outcomes.append("halted")
            except SimulationError:
                outcomes.append("raise")
        assert outcomes[0] == outcomes[1], f"max_steps={budget}: {outcomes}"
    # budget 2 is the exact boundary — the halt commits, so this is a halt
    sim = CompiledSimulator(risc16_desc)
    sim.load_words(program.words)
    assert sim.run(max_steps=2).halt_reason == "halted"


def test_run_after_halt_is_idempotent(risc16_desc):
    # the first halt is not the last word: what follows it never runs
    source = "ldi r1, #1\nhalt\nldi r2, #2\nadd r3, r1, r2\nhalt\n"
    program = Assembler(risc16_desc).assemble(source)
    reference = XSim(risc16_desc)
    reference.load_words(program.words, program.origin)
    sim = CompiledSimulator(risc16_desc)
    sim.load_words(program.words, program.origin)
    first = sim.run()
    assert first == reference.run_to_completion()
    assert first.instructions == 2
    again = sim.run()
    assert again.cycles == first.cycles
    assert again.instructions == first.instructions


def test_reload_replaces_the_program(risc16_desc):
    # the closures burn in one program's operands: loading words that
    # differ only in a constant must recompile them
    asm = Assembler(risc16_desc)
    sim = CompiledSimulator(risc16_desc)
    sim.load_words(asm.assemble("ldi r1, #1\nhalt\n").words)
    sim.run()
    sim.load_words(asm.assemble("ldi r1, #2\nhalt\n").words)
    sim.write("HALTED", 0)
    result = sim.run()
    assert sim.read("RF", 1) == 2
    assert result.instructions == 2


def test_second_program_counts_only_itself(risc16_desc):
    first = risc16_sum_loop(6).source
    second = "ldi r1, #3\nldi r2, #4\nadd r3, r1, r2\nhalt\n"
    results = {}
    for cls in (XSim, CompiledSimulator):
        sim = cls(risc16_desc)
        for source in (first, second):
            program = Assembler(risc16_desc).assemble(source)
            sim.load_words(program.words, program.origin)
            sim.write("HALTED", 0)
            result = sim.run()
        results[cls] = result
    assert results[CompiledSimulator] == results[XSim]
    fresh = XSim(risc16_desc)
    program = Assembler(risc16_desc).assemble(second)
    fresh.load_words(program.words, program.origin)
    alone = fresh.run_to_completion()
    assert results[CompiledSimulator].op_counts == alone.op_counts
    assert results[CompiledSimulator].instructions == alone.instructions


def test_reset_clears_counts(risc16_desc):
    compiled, result = run_compiled(risc16_sum_loop(4))
    assert result.instructions > 0
    compiled.reset()
    assert compiled.stats.instructions == 0
    assert not compiled.stats.op_counts


def test_reset_then_rerun_matches_xsim(risc16_desc):
    # a reset keeps state and the halt flag; cleared, the rerun counts
    # from zero again and repeats the first run
    program = Assembler(risc16_desc).assemble(risc16_sum_loop(6).source)
    runs = {}
    for cls in (XSim, CompiledSimulator):
        sim = cls(risc16_desc)
        sim.load_words(program.words, program.origin)
        first = sim.run_to_completion()
        sim.reset()
        sim.write("HALTED", 0)
        again = sim.run_to_completion()
        assert again == first, cls
        runs[cls] = (sim, again)
    (reference, want), (compiled, got) = runs[XSim], runs[CompiledSimulator]
    assert got == want
    assert_state_matches("risc16", compiled, reference)


def test_program_at_a_nonzero_origin_matches_xsim(risc16_desc):
    # execution counts are kept per address from the origin on
    program = Assembler(risc16_desc).assemble(
        ".org 8\n" + risc16_sum_loop(6).source)
    assert program.origin == 8
    runs = {}
    for cls in (XSim, CompiledSimulator):
        sim = cls(risc16_desc)
        sim.load_words(program.words, program.origin)
        runs[cls] = (sim, sim.run_to_completion())
    (reference, want), (compiled, got) = runs[XSim], runs[CompiledSimulator]
    assert got == want
    assert compiled.read("DM", 0) == 21
    assert compiled.read("PC") == reference.read("PC")
    assert_state_matches("risc16", compiled, reference)


def test_latency_write_outlives_halt(spam_desc):
    """A latency-3 write still in flight when the halt commits lands
    before the run returns, as on XSim."""
    program = Assembler(spam_desc).assemble("fmul r8, r9, r10\nhalt\n")
    sims = {}
    for cls in (XSim, CompiledSimulator):
        sim = cls(spam_desc)
        sim.write("RF", 0x40000000, 9)   # 2.0f
        sim.write("RF", 0x40400000, 10)  # 3.0f
        sim.load_words(program.words, program.origin)
        sim.run_to_completion()
        sims[cls] = sim
    assert sims[CompiledSimulator].read("RF", 8) == 0x40C00000  # 6.0f
    assert_state_matches("spam", sims[CompiledSimulator], sims[XSim])
    assert (sims[CompiledSimulator].stats.cycles
            == sims[XSim].stats.cycles)


#: a latency-3 fmul whose write is still in flight when a branch is
#: taken: forward, where the target reads the old value, and backward,
#: where each iteration reads the previous one's product
BRANCH_SOURCES = {
    "forward": """
        ldi r1, #1
        fmul r8, r9, r10
        bnez r1, next - .
        ldi r8, #7
next:   fadd r11, r8, r8
        halt
""",
    "loop": """
        ldi r2, #3
loop:   fmul r8, r9, r8
        sub r2, r2, #1
        bnez r2, loop - .
        fadd r11, r8, r8
        halt
""",
}


@pytest.mark.parametrize("shape,r8,r11", [
    ("forward", 0x40C00000, 0x40000000),  # 6.0f; 1.0f + 1.0f
    ("loop", 0x41000000, 0x41800000),     # 8.0f; 16.0f
], ids=list(BRANCH_SOURCES))
def test_latency_write_crosses_a_taken_branch(spam_desc, shape, r8, r11):
    program = Assembler(spam_desc).assemble(BRANCH_SOURCES[shape])
    runs = {}
    for cls in (XSim, CompiledSimulator):
        sim = cls(spam_desc)
        sim.write("RF", 0x3F800000, 8)   # 1.0f
        sim.write("RF", 0x40000000, 9)   # 2.0f
        sim.write("RF", 0x40400000, 10)  # 3.0f
        sim.load_words(program.words, program.origin)
        runs[cls] = (sim, sim.run_to_completion())
        assert (sim.read("RF", 8), sim.read("RF", 11)) == (r8, r11), cls
    (reference, want), (compiled, got) = runs[XSim], runs[CompiledSimulator]
    assert got == want
    assert_state_matches("spam", compiled, reference)
