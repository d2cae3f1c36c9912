"""Tests for the processing core's two-phase, bit-true semantics (§3.3.3)."""

import pytest

from repro.errors import SimulationError
from repro.gensim.core import INTRINSIC_IMPLS, ProcessingCore
from repro.gensim.disassembler import DecodedInstruction, DecodedOperation
from repro.gensim.scheduler import prepare_instruction
from repro.gensim.state import State
from repro.isdl import load_string

SWAP_ISDL = '''
processor "SWAP"
section format
    word 8
end
section global_definitions
    token REG prefix "R" range 0 .. 3
end
section storage
    instruction_memory IM width 8 depth 8
    register_file RF width 8 depth 4
    register ACC width 8
    control_register F width 1
    program_counter PC width 3
end
section instruction_set
    field EX
        operation swap(a: REG, b: REG)
            encoding { bits[7:4] = 0b0001; bits[3:2] = a; bits[1:0] = b }
            action { RF[a] <- RF[b]; RF[b] <- RF[a]; }
        operation addf(a: REG, b: REG)
            encoding { bits[7:4] = 0b0010; bits[3:2] = a; bits[1:0] = b }
            action { RF[a] <- RF[a] + RF[b]; ACC <- RF[a]; }
            side_effect { F <- 1; ACC <- 7; }
        operation slowmul(a: REG, b: REG)
            encoding { bits[7:4] = 0b0011; bits[3:2] = a; bits[1:0] = b }
            action { RF[a] <- RF[a] * RF[b]; }
            cost cycle 2 stall 2
            timing latency 3
        operation condset(a: REG, b: REG)
            encoding { bits[7:4] = 0b0100; bits[3:2] = a; bits[1:0] = b }
            action { if RF[b] == 0 { RF[a] <- 1; } else { RF[a] <- 2; } }
    end
end
'''


@pytest.fixture(scope="module")
def swap_desc():
    return load_string(SWAP_ISDL)


def prepare(desc, field, *operations):
    """The load-time record of one instruction made of ``(operation name,
    operands)`` pairs, all in *field*; operands are decoded-operand trees
    as the disassembler produces them."""
    decoded = DecodedInstruction(0, tuple(
        DecodedOperation(field, name, operands)
        for name, operands in operations
    ))
    return prepare_instruction(desc, decoded)


def execute(desc, state, op_name, operands):
    core = ProcessingCore()
    return core.execute(state, prepare(desc, "EX", (op_name, operands)))


def commit(state, result):
    for write in result.action_writes + result.side_effect_writes:
        state.write(write.storage, write.value, write.index, write.hi,
                    write.lo)


def test_read_before_write_enables_swap(swap_desc):
    state = State(swap_desc)
    state.write("RF", 11, 0)
    state.write("RF", 22, 1)
    result = execute(swap_desc, state, "swap", {"a": 0, "b": 1})
    commit(state, result)
    assert state.read("RF", 0) == 22
    assert state.read("RF", 1) == 11


def test_action_reads_see_pre_cycle_state(swap_desc):
    state = State(swap_desc)
    state.write("RF", 5, 0)
    state.write("RF", 3, 1)
    result = execute(swap_desc, state, "addf", {"a": 0, "b": 1})
    commit(state, result)
    # ACC <- RF[a] uses the OLD RF[a] (5), not the sum (8).
    assert state.read("RF", 0) == 8
    assert state.read("ACC") == 7  # side effect overrides action write


def test_side_effects_commit_after_actions(swap_desc):
    state = State(swap_desc)
    result = execute(swap_desc, state, "addf", {"a": 0, "b": 1})
    assert [w.storage for w in result.action_writes] == ["RF", "ACC"]
    assert [w.storage for w in result.side_effect_writes] == ["F", "ACC"]


def test_latency_becomes_write_delay(swap_desc):
    state = State(swap_desc)
    result = execute(swap_desc, state, "slowmul", {"a": 0, "b": 1})
    assert result.action_writes[0].delay == 2  # latency 3


def test_cycle_cost_propagates(swap_desc):
    state = State(swap_desc)
    result = execute(swap_desc, state, "slowmul", {"a": 0, "b": 1})
    assert result.cycles == 2


def test_conditional_branches_choose_arm(swap_desc):
    state = State(swap_desc)
    result = execute(swap_desc, state, "condset", {"a": 0, "b": 1})
    commit(state, result)
    assert state.read("RF", 0) == 1
    state.write("RF", 9, 1)
    result = execute(swap_desc, state, "condset", {"a": 0, "b": 1})
    commit(state, result)
    assert state.read("RF", 0) == 2


def test_vliw_ops_all_read_old_state(risc16_desc):
    # Not a real VLIW arch, but an instruction may hold several
    # operations; both must read pre-cycle state.
    state = State(risc16_desc)
    state.write("RF", 10, 0)
    core = ProcessingCore()
    result = core.execute(
        state,
        prepare(
            risc16_desc, "EX",
            ("add", {"d": 1, "a": 0, "b": ("imm", {"v": 1})}),
            ("add", {"d": 2, "a": 0, "b": ("imm", {"v": 2})}),
        ),
    )
    commit(state, result)
    assert state.read("RF", 1) == 11
    assert state.read("RF", 2) == 12


def test_nt_action_evaluated_once_per_execution(acc8_desc):
    # 'add (X)+' reads DM[X] and post-increments X exactly once even
    # though the action references the operand value.
    state = State(acc8_desc)
    state.write("DM", 42, 0)
    core = ProcessingCore()
    result = core.execute(
        state, prepare(acc8_desc, "OP", ("add", {"m": ("postinc", {})}))
    )
    commit(state, result)
    assert state.read("ACC") == 42
    assert state.read("X") == 1
    x_writes = [w for w in result.side_effect_writes if w.storage == "X"]
    assert len(x_writes) == 1


def test_division_by_zero_raises(swap_desc):
    state = State(swap_desc)
    core = ProcessingCore()
    from repro.isdl import rtl

    with pytest.raises(SimulationError):
        core._run_block(
            state,
            (rtl.Assign(rtl.StorageLV("ACC"),
                        rtl.BinOp("/", rtl.IntLit(1), rtl.IntLit(0))),),
            {}, [], 0,
        )


# ---------------------------------------------------------------------------
# Intrinsic implementations
# ---------------------------------------------------------------------------


def test_carry_borrow_overflow():
    carry = INTRINSIC_IMPLS["carry"]
    borrow = INTRINSIC_IMPLS["borrow"]
    overflow = INTRINSIC_IMPLS["overflow"]
    assert carry(0xFFFF, 1, 16) == 1
    assert carry(0x7FFF, 1, 16) == 0
    assert borrow(0, 1, 16) == 1
    assert borrow(5, 3, 16) == 0
    assert overflow(0x7FFF, 1, 16) == 1  # +32767 + 1 overflows signed
    assert overflow(1, 1, 16) == 0
    assert overflow(0x8000, 0xFFFF, 16) == 1  # -32768 + -1


def test_sext_zext_bit_slice():
    assert INTRINSIC_IMPLS["sext"](0x80, 8) == -128
    assert INTRINSIC_IMPLS["sext"](0x7F, 8) == 127
    assert INTRINSIC_IMPLS["zext"](-1, 8) == 0xFF
    assert INTRINSIC_IMPLS["bit"](0b1010, 3) == 1
    assert INTRINSIC_IMPLS["slice"](0xABCD, 11, 4) == 0xBC


def test_trunc_division_semantics():
    from repro.gensim.core import _BINOPS

    assert _BINOPS["/"](7, 2) == 3
    assert _BINOPS["/"](-7, 2) == -3  # truncates toward zero
    assert _BINOPS["%"](-7, 2) == -1
    assert _BINOPS["%"](7, -2) == 1
