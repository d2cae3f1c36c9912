"""Tests for static stall computation (§3.3.3)."""

import pytest

from repro.asm import Assembler
from repro.encoding.signature import SignatureTable
from repro.gensim.disassembler import Disassembler
from repro.gensim.hazards import HazardAnalyzer
from repro.gensim.scheduler import prepare_instruction


def prepare_program(desc, source):
    """The load-time record of each word of *source*, as a load makes."""
    program = Assembler(desc).assemble(source)
    dis = Disassembler(desc, SignatureTable(desc))
    return [prepare_instruction(desc, dis.disassemble(word))
            for word in program.words]


def stalls(desc, source):
    return HazardAnalyzer(desc).stalls_for_program(
        prepare_program(desc, source))


def test_no_stalls_for_latency_one(risc16_desc):
    result = stalls(risc16_desc, """
        ldi r0, #1
        add r1, r1, r0
        add r2, r2, r1
        halt
""")
    assert result == [0, 0, 0, 0]


def test_fp_latency_creates_stalls(spam_desc):
    result = stalls(spam_desc, """
        fadd r1, r2, r3
        fadd r4, r1, r1
        halt
""")
    # fadd latency 2, consumer at distance 1 -> 1 stall (cap: stall cost 1)
    assert result == [0, 1, 0]


def test_distance_beyond_latency_needs_no_stall(spam_desc):
    result = stalls(spam_desc, """
        fadd r1, r2, r3
        inop
        fadd r4, r1, r1
        halt
""")
    assert result == [0, 0, 0, 0]


def test_stall_capped_by_stall_cost(spam_desc):
    result = stalls(spam_desc, """
        fmul r1, r2, r3
        fadd r4, r1, r1
        halt
""")
    # fmul latency 3, distance 1 -> need 2; cap = fmul stall cost 2
    assert result == [0, 2, 0]


def test_register_precision_no_false_conflict(spam_desc):
    result = stalls(spam_desc, """
        fadd r1, r2, r3
        fadd r4, r5, r6
        halt
""")
    # Different registers: no hazard even within the latency window.
    assert result == [0, 0, 0]


def test_dynamic_memory_access_is_conservative(spam_desc):
    result = stalls(spam_desc, """
        ld r1, (r2)
        ld r3, (r4)
        halt
""")
    # Loads write registers (precise: r1 vs r3 don't conflict) but both
    # read DM with dynamic addresses: reads don't conflict with reads.
    assert result == [0, 0, 0]


def test_load_use_hazard(spam_desc):
    result = stalls(spam_desc, """
        ld r1, (r2)
        add r3, r1, #1
        halt
""")
    assert result == [0, 1, 0]


def test_structural_hazard_from_usage(spam_desc):
    result = stalls(spam_desc, """
        fdiv r1, r2, r3
        fdiv r4, r5, r6
        halt
""")
    # fdiv usage 8: the second divide waits 7 cycles for the unit.
    assert result == [0, 7, 0]


def test_usage_hazard_only_same_field(spam_desc):
    result = stalls(spam_desc, """
        fdiv r1, r2, r3
        add r4, r5, #1
        halt
""")
    # integer ALU is a different unit; r-operands don't depend on fdiv...
    # but fdiv writes r1 with latency 8 — 'add' doesn't read r1, so free.
    assert result == [0, 0, 0]


def test_vliw_parallel_ops_profiled_together(spam_desc):
    result = stalls(spam_desc, """
        ld r4, (r0) | add r0, r0, #1
        ld r5, (r1) | add r1, r1, #1
        halt
""")
    # second line reads r1/r5-free and r0 updated with latency 1 — fine.
    assert result == [0, 0, 0]


def test_profile_cache_reuses_identical_instructions(spam_desc):
    program = prepare_program(spam_desc, """
        add r1, r1, #1
        add r1, r1, #1
        halt
""")
    analyzer = HazardAnalyzer(spam_desc)
    analyzer.stalls_for_program(program)
    assert len(analyzer._profile_cache) == 2  # add-line + halt


def test_nt_side_effect_write_counts(acc8_desc):
    result = stalls(acc8_desc, """
        ldx #0
        add (X)+
        add (X)+
        halt
""")
    # X is written with latency 1 by the post-increment: no stalls needed.
    assert result == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Edge cases: conditional PC writes, same-cycle side effects, program ends
# ---------------------------------------------------------------------------


def test_conditional_pc_write_appears_in_profile(risc16_desc):
    """A conditional branch is still a PC writer for hazard purposes —
    the ``if`` guard must not hide the write from the profile."""
    program = prepare_program(risc16_desc, "loop: bne loop - .\n")
    profile = HazardAnalyzer(risc16_desc).profile(program[0])
    written = {access[0] for access, _, _ in profile.writes}
    assert "PC" in written


def test_conditional_branch_consumes_flags_without_stall(risc16_desc):
    """cmp writes the flags with latency 1; the branch reading them in the
    next slot needs no stall — and the guarded PC write adds none."""
    result = stalls(risc16_desc, """
        cmp r1, r2
loop:   bne loop - .
        beq loop - .
        halt
""")
    assert result == [0, 0, 0, 0]


def test_branch_condition_read_is_in_profile(risc16_desc):
    program = prepare_program(risc16_desc, "cmp r1, r2\nloop: bne loop - .\n")
    analyzer = HazardAnalyzer(risc16_desc)
    cmp_writes = {a[0] for a, _, _ in analyzer.profile(program[0]).writes}
    bne_reads = {a[0] for a in analyzer.profile(program[1]).reads}
    # the branch reads what cmp writes (flag storage), so a longer-latency
    # flag producer *would* stall it — the dependence edge exists
    assert cmp_writes & bne_reads


def test_same_cycle_side_effect_needs_no_stall(acc8_desc):
    """A latency-1 ('zero extra cycles') side-effect write is visible to
    the very next instruction without stalling — the post-incremented X
    feeds a store through it immediately."""
    result = stalls(acc8_desc, """
        ldx #3
        add (X)+
        sub (X)+
        halt
""")
    assert result == [0, 0, 0, 0]
    program = prepare_program(acc8_desc, "add (X)+\n")
    profile = HazardAnalyzer(acc8_desc).profile(program[0])
    x_writes = [
        (access, latency)
        for access, latency, _ in profile.writes
        if access[0] == "X"
    ]
    assert x_writes and all(latency == 1 for _, latency in x_writes)


def test_producer_on_last_program_word_is_safe(spam_desc):
    """A long-latency producer as the final word: the hazard window runs
    off the end of the program and must simply truncate."""
    result = stalls(spam_desc, """
        fadd r1, r2, r3
        fmul r4, r5, r6
""")
    assert result == [0, 0]


def test_hazard_window_spans_program_end_without_consumer(spam_desc):
    """Latency reaches past the last word; only the in-range consumer
    stalls and the final instruction never indexes past the program."""
    result = stalls(spam_desc, """
        fmul r1, r2, r3
        fadd r4, r1, r1
""")
    assert result == [0, 2]


def test_empty_and_single_word_programs(risc16_desc):
    analyzer = HazardAnalyzer(risc16_desc)
    assert analyzer.stalls_for_program([]) == []
    program = prepare_program(risc16_desc, "halt\n")
    assert analyzer.stalls_for_program(program) == [0]
