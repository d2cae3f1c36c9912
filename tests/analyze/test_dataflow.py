"""Tests for the worklist dataflow engine and the program facts."""

import pytest

from repro.analyze.dataflow import fixpoint, program_facts
from repro.arch import description_for
from repro.arch.workloads import all_workloads, risc16_sum_loop
from repro.asm import Assembler
from repro.gensim.cfg import MAX_BLOCK_LEN


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


def test_capped_block_falls_through_to_its_tail(risc16_desc):
    # a straight line longer than the block cap is split: the first block
    # did not end, so it carries capped=True and the tail as successor
    body = "nop\n" * (MAX_BLOCK_LEN + 6) + "halt\n"
    words, origin = _assemble(risc16_desc, body)
    facts = program_facts(risc16_desc, words, origin, name="long")
    first, tail = facts.blocks[0], facts.blocks[MAX_BLOCK_LEN]
    assert first.capped and not first.ends_in_branch
    assert first.succs == (MAX_BLOCK_LEN,)
    assert not tail.capped and tail.succs == ()  # ends at the program end


def test_sum_loop_blocks_enter_at_every_branch_target(risc16_desc):
    # prologue+loop ends at bne; the loop target starts its own block,
    # which overlaps the first one's tail; st; halt runs off the end
    words, origin = _assemble(risc16_desc, risc16_sum_loop(5).source)
    facts = program_facts(risc16_desc, words, origin, name="sum_loop")
    assert sorted(facts.blocks) == [0, 3, 6]
    assert facts.blocks[0].offsets == (0, 1, 2, 3, 4, 5)
    assert facts.blocks[3].offsets == (3, 4, 5)
    for start in (0, 3):
        assert facts.blocks[start].ends_in_branch
        assert facts.blocks[start].succs == (3, 6)
        assert not facts.blocks[start].may_exit
    assert facts.blocks[6].offsets == (6, 7)
    assert not facts.blocks[6].ends_in_branch
    assert facts.blocks[6].may_exit
    assert facts.reachable_offsets == frozenset(range(len(words)))


def test_branch_on_last_program_word_cannot_leave_the_program(risc16_desc):
    # a block whose terminator is the final word: the jmp never falls
    # through, so no block has an exit edge past the program
    words, origin = _assemble(risc16_desc, "ldi r1, #1\nloop: jmp loop\n")
    facts = program_facts(risc16_desc, words, origin, name="spin")
    assert facts.blocks[0].offsets == (0, 1)
    assert facts.blocks[0].succs == (1,)
    assert facts.blocks[1].succs == (1,)
    assert not any(block.may_exit for block in facts.blocks.values())
    assert facts.halting is False


def test_conditional_branch_block_falls_through(risc16_desc):
    words, origin = _assemble(risc16_desc, """
        ldi r0, #3
loop:   sub r0, r0, #1
        bne loop - .
        halt
""")
    facts = program_facts(risc16_desc, words, origin, name="countdown")
    branch = facts.blocks[0]
    assert branch.ends_in_branch and not branch.capped
    assert branch.succs == (1, 3)  # taken, then the not-taken successor
    assert facts.blocks[3].succs == ()  # halt: the program ends
    assert facts.blocks[3].may_exit


def test_unconditional_branch_block_has_no_fall_through(risc16_desc):
    words, origin = _assemble(risc16_desc,
                              "ldi r1, #1\nloop: jmp loop\nhalt\n")
    facts = program_facts(risc16_desc, words, origin, name="spin")
    assert facts.blocks[0].ends_in_branch
    assert facts.blocks[0].succs == (1,)  # jmp never falls through
    assert 2 not in facts.blocks  # so the halt after it is unreachable
    assert facts.reachable_offsets == frozenset({0, 1})


def test_straight_line_block_has_no_successor_past_the_end(risc16_desc):
    words, origin = _assemble(risc16_desc, "nop\nhalt\n")
    facts = program_facts(risc16_desc, words, origin, name="line")
    (block,) = facts.blocks.values()
    assert block.offsets == (0, 1)
    assert not block.capped and not block.ends_in_branch
    assert block.succs == () and block.may_exit


def test_branch_out_of_the_program_is_an_exit_edge(risc16_desc):
    # a resolved target outside the loaded words is no successor block,
    # but the block may leave the program there
    words, origin = _assemble(risc16_desc, "ldi r1, #1\njmp 40\n")
    facts = program_facts(risc16_desc, words, origin, name="away")
    (block,) = facts.blocks.values()
    assert block.succs == () and block.may_exit
    assert not block.succs_unknown and facts.complete
    words, origin = _assemble(risc16_desc, "ldi r1, #1\nbne 30\nhalt\n")
    facts = program_facts(risc16_desc, words, origin, name="maybe_away")
    assert facts.blocks[0].succs == (2,)  # only the fall-through
    assert facts.blocks[0].may_exit


def test_vliw_loop_block_graph(spam_desc):
    # SPAM's dot product: the prologue runs into the loop, whose bnez
    # closes both blocks; the store and halt run off the end
    workload = next(w for w in all_workloads()
                    if w.name == "fp_dot_product")
    words, origin = _assemble(spam_desc, workload.source)
    facts = program_facts(spam_desc, words, origin, name=workload.name)
    assert facts.complete
    assert sorted(facts.blocks) == [0, 5, 13]
    assert facts.blocks[0].offsets == tuple(range(13))
    assert facts.blocks[5].offsets == tuple(range(5, 13))
    for start in (0, 5):
        assert facts.blocks[start].ends_in_branch
        assert facts.blocks[start].succs == (5, 13)
    assert facts.blocks[13].offsets == (13, 14)
    assert facts.blocks[13].succs == () and facts.blocks[13].may_exit


def test_every_workload_has_complete_facts():
    for workload in all_workloads():
        desc = description_for(workload.arch)
        words, origin = _assemble(desc, workload.source)
        facts = program_facts(desc, words, origin, name=workload.name)
        assert facts.complete, workload.name
        assert facts.blocks, workload.name
