"""Tests for the worklist dataflow engine and the program facts."""

import pytest

from repro.analyze.dataflow import fixpoint, program_facts
from repro.arch import description_for
from repro.arch.workloads import all_workloads, risc16_sum_loop
from repro.asm import Assembler


def _assemble(desc, source):
    program = Assembler(desc).assemble(source)
    return tuple(program.words), program.origin


#: splits the hot loop across three blocks joined by unconditional
#: jumps
CHAIN_SOURCE = """
        ldi r0, #50
        ldi r1, #0
        ldi r2, #0
        jmp loop
loop:   add r1, r1, r0
        jmp body
body:   sub r0, r0, #1
        bne loop - .
        st (r2), r1
        halt
"""


# ---------------------------------------------------------------------------
# The generic engine
# ---------------------------------------------------------------------------


def test_fixpoint_forward_union():
    # 0 -> 1 -> 2, 2 -> 1 (a loop): gen sets must accumulate along paths
    edges = {0: [1], 1: [2], 2: [1]}

    def transfer(node, incoming):
        return frozenset(incoming | {node})

    result = fixpoint(
        [0, 1, 2], edges, transfer,
        lambda a, b: frozenset(a | b), lambda n: frozenset(),
    )
    assert result[0] == (frozenset(), frozenset({0}))
    # the loop 1 -> 2 -> 1 feeds every gen (1's own included) back in
    assert result[1][0] == frozenset({0, 1, 2})
    assert result[2] == (frozenset({0, 1, 2}), frozenset({0, 1, 2}))


def test_fixpoint_backward_flips_edges():
    edges = {0: [1], 1: [2]}

    def transfer(node, incoming):
        return frozenset(incoming | {node})

    result = fixpoint(
        [0, 1, 2], edges, transfer,
        lambda a, b: frozenset(a | b), lambda n: frozenset(),
        direction="backward",
    )
    # node 0's "in" (what flows back into it) covers every later node
    assert result[0][0] == frozenset({1, 2})
    assert result[2] == (frozenset(), frozenset({2}))


def test_fixpoint_rejects_unknown_direction():
    with pytest.raises(ValueError):
        fixpoint([0], {}, lambda n, f: f, lambda a, b: a, lambda n: 0,
                 direction="sideways")


def test_fixpoint_is_deterministic():
    edges = {n: [(n + 1) % 8, (n + 3) % 8] for n in range(8)}

    def transfer(node, incoming):
        return frozenset(incoming | {node})

    runs = [
        fixpoint(range(8), edges, transfer,
                 lambda a, b: frozenset(a | b), lambda n: frozenset())
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# Program facts
# ---------------------------------------------------------------------------


def test_sum_loop_facts_are_complete(risc16_desc):
    words, origin = _assemble(risc16_desc, risc16_sum_loop(5).source)
    facts = program_facts(risc16_desc, words, origin, name="sum_loop")
    assert facts.complete
    assert facts.entry == 0
    assert facts.reachable_offsets == frozenset(range(len(words)))
    assert facts.halting is None  # it does halt, but only dynamically


def test_chain_program_block_graph(risc16_desc):
    words, origin = _assemble(risc16_desc, CHAIN_SOURCE)
    facts = program_facts(risc16_desc, words, origin, name="chain")
    assert facts.complete
    assert set(facts.blocks) == {0, 4, 6, 8}
    assert facts.blocks[0].succs == (4,)     # jmp loop
    assert facts.blocks[4].succs == (6,)     # jmp body
    assert facts.blocks[6].succs == (4, 8)   # bne: taken + fall-through
    assert facts.blocks[8].succs == ()       # st; halt — run ends
    # the unconditional jmp resolves to exactly one target
    jmp = facts.instr[3]
    assert jmp.writes_pc and not jmp.conditional_pc
    assert jmp.pc_targets == (4,)


def test_every_workload_has_complete_facts():
    for workload in all_workloads():
        desc = description_for(workload.arch)
        words, origin = _assemble(desc, workload.source)
        facts = program_facts(desc, words, origin, name=workload.name)
        assert facts.complete, workload.name
        assert facts.blocks, workload.name
