"""Tests for control-flow facts and basic-block spans."""

import pytest

from repro.arch.workloads import risc16_sum_loop
from repro.asm import Assembler
from repro.gensim.cfg import MAX_BLOCK_LEN, ControlFlowAnalyzer, block_span
from repro.gensim.disassembler import (
    DecodedInstruction,
    DecodedOperation,
    Disassembler,
)


def _flows(desc, source):
    program = Assembler(desc).assemble(source)
    disasm = Disassembler(desc)
    decoded = [disasm.disassemble(word) for word in program.words]
    analyzer = ControlFlowAnalyzer(desc)
    return analyzer.flows_for_program(decoded), analyzer, decoded


# ---------------------------------------------------------------------------
# Per-instruction classification
# ---------------------------------------------------------------------------


def test_risc16_flow_classification(risc16_desc):
    source = """
        add r1, r2, r3
loop:   bne loop - .
        jmp loop
        halt
"""
    flows, _, _ = _flows(risc16_desc, source)
    add, bne, jmp, halt = flows

    assert not add.writes_pc

    assert bne.writes_pc and bne.conditional_pc

    assert jmp.writes_pc and not jmp.conditional_pc

    assert not halt.writes_pc

    for flow in flows:
        assert not flow.writes_imem
        assert not flow.unresolved
        assert flow.size == 1


def test_spam_flow_classification(spam_desc):
    # a VLIW line is one flow: its latency is that of its slowest field,
    # and it branches only if one of its fields writes the PC
    flows, _, _ = _flows(spam_desc, """
loop:   ld r4, (r0) | add r0, r0, #1
        fmul r6, r4, r5 | sub r2, r2, #1
        bnez r2, loop - .
        jmp loop
        halt
""")
    load, multiply, bnez, jmp, halt = flows
    assert not load.writes_pc and load.max_latency == 2
    assert not multiply.writes_pc and multiply.max_latency == 3
    assert bnez.writes_pc and bnez.conditional_pc
    assert jmp.writes_pc and not jmp.conditional_pc
    assert not halt.writes_pc
    for flow in flows:
        assert not flow.writes_imem
        assert not flow.unresolved
        assert flow.size == 1


def test_alias_base_resolves_aliases(risc16_desc):
    """A destination named through an alias is the storage behind it
    (the program counter is recognised by its base name)."""
    analyzer = ControlFlowAnalyzer(risc16_desc)
    assert analyzer._alias_base("Z") == "CCR"  # a flag bit of CCR
    assert analyzer._alias_base("CCR") == "CCR"
    assert analyzer._alias_base("PC") == "PC"


def test_flow_latency_and_storage_sets(spam_desc):
    flows, _, _ = _flows(spam_desc, "fmul r1, r2, r3\nhalt\n")
    fmul = flows[0]
    assert fmul.max_latency >= 3  # SPAM's pipelined multiplier


def test_flow_results_are_cached(risc16_desc):
    _, analyzer, decoded = _flows(
        risc16_desc, "add r1, r2, r3\nadd r1, r2, r3\nhalt\n"
    )
    first = analyzer.flow(decoded[0])
    second = analyzer.flow(decoded[1])
    assert first is second  # identical words share one cache entry


# ---------------------------------------------------------------------------
# Block discovery
# ---------------------------------------------------------------------------


def test_block_span_stops_at_terminator(risc16_desc):
    flows, _, _ = _flows(risc16_desc, """
        ldi r0, #3
        ldi r1, #0
loop:   add r1, r1, r0
        sub r0, r0, #1
        bne loop - .
        halt
""")
    assert block_span(flows, 0) == (0, 1, 2, 3, 4)  # ends at bne
    assert block_span(flows, 2) == (2, 3, 4)        # branch target mid-block
    assert block_span(flows, 5) == (5,)             # halt runs to program end


def test_block_span_out_of_range_or_hole(risc16_desc):
    flows, _, _ = _flows(risc16_desc, "halt\n")
    assert block_span(flows, 99) == ()
    assert block_span(flows, -1) == ()
    assert block_span(flows + [None], 1) == ()


def test_block_span_respects_length_cap(risc16_desc):
    body = "nop\n" * (MAX_BLOCK_LEN + 6) + "halt\n"
    flows, _, _ = _flows(risc16_desc, body)
    span = block_span(flows, 0)
    assert len(span) == MAX_BLOCK_LEN
    # the tail is a fresh block starting where the cap split
    tail = block_span(flows, span[-1] + 1)
    assert tail[-1] == MAX_BLOCK_LEN + 6  # the halt


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def _reversed_operands(operands):
    out = {}
    for name in reversed(list(operands)):
        value = operands[name]
        if isinstance(value, tuple):  # NT binding: (label, sub-operands)
            label, sub = value
            value = (label, _reversed_operands(sub))
        out[name] = value
    return out


def test_flows_deterministic_under_operand_order(risc16_desc):
    """Flow facts are functions of the decoded program, not of
    operand-dict insertion order."""
    workload = risc16_sum_loop(5)
    flows, analyzer, decoded = _flows(risc16_desc, workload.source)
    shuffled = [
        DecodedInstruction(
            word=d.word,
            operations=tuple(
                DecodedOperation(op.field, op.op_name,
                                 _reversed_operands(op.operands))
                for op in reversed(d.operations)
            ),
        )
        for d in decoded
    ]
    reordered = ControlFlowAnalyzer(risc16_desc).flows_for_program(shuffled)
    assert reordered == flows
    # the per-instruction cache key is order-insensitive too
    assert analyzer.flow(shuffled[0]) is analyzer.flow(decoded[0])
