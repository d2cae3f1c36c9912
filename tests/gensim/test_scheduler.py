"""Tests for the scheduler: sequencing, stalls, latency, breakpoints."""

import sys

import pytest

from repro.arch import description_for, prepare
from repro.arch.workloads import risc16_sum_loop, workloads_for
from repro.errors import SimulationError
from repro.gensim.xsim import XSim


def load(sim, source):
    from repro.asm import Assembler

    program = Assembler(sim.desc).assemble(source)
    sim.load_words(program.words, program.origin)
    return program


@pytest.fixture
def sim(risc16_desc):
    return XSim(risc16_desc)


def test_step_executes_one_instruction(sim):
    load(sim, "ldi r0, #5\nhalt\n")
    assert sim.step()
    assert sim.cycle == 1
    # the write is pending until the next commit point
    sim.step()
    assert sim.read("RF", 0) == 5


def test_run_to_completion_drains_writes(sim):
    load(sim, "ldi r0, #5\nhalt\n")
    stats = sim.run_to_completion()
    assert sim.read("RF", 0) == 5
    assert sim.halted
    assert stats.instructions == 2


def test_pc_advances_by_default(sim):
    load(sim, "nop\nnop\nhalt\n")
    sim.step()
    sim.step()
    assert sim.state.pc == 2


def test_branch_overrides_pc(sim):
    load(sim, "jmp 3\nnop\nnop\nhalt\n")
    sim.run_to_completion()
    assert sim.stats.instructions == 2  # jmp + halt


def test_conditional_branch_taken_and_not(sim):
    source = """
        ldi r0, #1
        cmp r0, #1
        beq over - .
        ldi r1, #99
over:   halt
"""
    load(sim, source)
    sim.run_to_completion()
    assert sim.read("RF", 1) == 0  # skipped


def test_cycle_costs_accumulate(sim):
    load(sim, "ld r0, (r1)\nst (r1), r0\nhalt\n")
    # ld cost 2 + st cost 2 + halt 1, plus 1 stall (ld->st, latency 2... no:
    # risc16 ops are latency 1, so no stalls).
    sim.run_to_completion()
    assert sim.stats.cycles == 5
    assert sim.stats.stall_cycles == 0


def test_max_steps_raises(sim):
    load(sim, "loop: jmp loop\n")
    with pytest.raises(SimulationError):
        sim.run_to_completion(max_steps=100)


def test_run_stops_at_breakpoint(sim):
    load(sim, "nop\nnop\nnop\nhalt\n")
    sim.set_breakpoint(2)
    assert sim.run().halt_reason == "breakpoint"
    assert sim.state.pc == 2
    assert sim.run().halt_reason == "halted"


def test_breakpoint_attached_commands_dispatch(sim):
    load(sim, "nop\nnop\nhalt\n")
    sim.set_breakpoint(1, commands=["print RF", "trace on"])
    seen = []
    sim.scheduler.command_dispatcher = seen.append
    sim.run()
    assert seen == ["print RF", "trace on"]


def test_disabled_breakpoint_is_skipped(sim):
    load(sim, "nop\nnop\nhalt\n")
    bp = sim.set_breakpoint(1)
    bp.enabled = False
    assert sim.run().halt_reason == "halted"


def test_clear_breakpoint(sim):
    load(sim, "nop\nhalt\n")
    sim.set_breakpoint(1)
    sim.clear_breakpoint(1)
    assert sim.run().halt_reason == "halted"


def test_reset_restores_pc_and_counters(sim):
    load(sim, "ldi r0, #5\nhalt\n")
    sim.run_to_completion()
    cycles = sim.cycle
    assert cycles > 0
    sim.write("HALTED", 0)
    sim.reset()
    assert sim.cycle == 0
    assert sim.state.pc == 0
    sim.run_to_completion()
    assert sim.cycle == cycles


def test_executing_past_program_end_raises(sim):
    load(sim, "nop\n")  # never halts; runs off the end
    with pytest.raises(SimulationError):
        sim.run(max_steps=10)


def test_program_too_large_raises(risc16_desc):
    sim = XSim(risc16_desc)
    with pytest.raises(SimulationError):
        sim.load_words([0] * 2000)


def test_latency_delays_visibility():
    """A latency-2 write is invisible to the immediately next instruction
    unless the static stall analysis inserts a wait."""
    from repro.isdl import load_string

    desc = load_string('''
processor "LAT"
section format
    word 8
end
section storage
    instruction_memory IM width 8 depth 16
    register A width 8
    register B width 8
    control_register HALTED width 1
    program_counter PC width 4
end
section instruction_set
    field EX
        operation seta()
            encoding { bits[7:4] = 0b0001 }
            action { A <- 5; }
            cost cycle 1 stall 0
            timing latency 2
        operation copy()
            encoding { bits[7:4] = 0b0010 }
            action { B <- A; }
        operation nop()
            encoding { bits[7:4] = 0b0000 }
        operation halt()
            encoding { bits[7:4] = 0b1111 }
            action { HALTED <- 1; }
    end
end
section optional
    attribute halt_flag "HALTED"
end
''')
    sim = XSim(desc)
    words = [0b0001_0000, 0b0010_0000, 0b1111_0000]
    program = sim.load_words(words)
    # stall cap is 0 (stall cost 0), so no stall is inserted and the copy
    # sees the OLD value of A.
    assert program.stalls == [0, 0, 0]
    sim.run_to_completion()
    assert sim.read("B") == 0
    assert sim.read("A") == 5


def test_stall_cost_inserts_wait_and_fixes_value():
    from repro.isdl import load_string

    desc = load_string('''
processor "LAT2"
section format
    word 8
end
section storage
    instruction_memory IM width 8 depth 16
    register A width 8
    register B width 8
    control_register HALTED width 1
    program_counter PC width 4
end
section instruction_set
    field EX
        operation seta()
            encoding { bits[7:4] = 0b0001 }
            action { A <- 5; }
            cost cycle 1 stall 1
            timing latency 2
        operation copy()
            encoding { bits[7:4] = 0b0010 }
            action { B <- A; }
        operation halt()
            encoding { bits[7:4] = 0b1111 }
            action { HALTED <- 1; }
    end
end
section optional
    attribute halt_flag "HALTED"
end
''')
    sim = XSim(desc)
    program = sim.load_words([0b0001_0000, 0b0010_0000, 0b1111_0000])
    assert program.stalls == [0, 1, 0]
    sim.run_to_completion()
    assert sim.read("B") == 5
    assert sim.stats.stall_cycles == 1
    assert sim.stats.cycles == 4  # 3 instructions + 1 stall


def test_stats_track_op_counts_and_utilization(risc16_desc):
    sim, _ = prepare(risc16_sum_loop(5))
    sim.run_to_completion()
    stats = sim.stats
    assert stats.op_counts[("EX", "add")] == 5
    assert stats.op_counts[("EX", "sub")] == 5
    assert stats.op_counts[("EX", "halt")] == 1
    util = stats.field_utilization(risc16_desc)
    assert 0.9 < util["EX"] <= 1.0
    assert ("EX", "jal") in stats.unused_operations(risc16_desc)
    assert stats.cpi >= 1.0
    report = stats.report(risc16_desc)
    assert "cycles" in report and "EX" in report


def test_run_binds_no_operands_after_load(monkeypatch):
    # operands are bound once, when the program is loaded; running a loop
    # only evaluates RTL over those bindings
    from repro.gensim import core, scheduler

    workload = risc16_sum_loop(5)
    sim, length = prepare(workload)

    def bind_operands(*args, **kwargs):
        raise AssertionError("operands bound during the run")

    for module in (core, scheduler):
        monkeypatch.setattr(module, "bind_operands", bind_operands)
    stats = sim.run_to_completion()
    assert stats.instructions > length  # the loop body ran repeatedly
    for storage, contents in workload.expected.items():
        for index, value in contents.items():
            assert sim.read(storage, index) == value


@pytest.mark.parametrize("arch", ["spam", "acc8"])
@pytest.mark.parametrize("engine", ["xsim", "compiled"])
def test_load_binds_each_decoded_operation_once(monkeypatch, engine, arch):
    # the hazard profile and the executor read one binding per
    # operation, made at load
    from repro.asm import Assembler
    from repro.gensim import core, simulator_for

    desc = description_for(arch)
    workload = workloads_for(arch)[0]
    program = Assembler(desc).assemble(workload.source)
    real = core.bind_operands
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # every caller of the binder; its own recursion into non-terminal
    # operands is part of one binding
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.gensim.") and name != core.__name__
                and getattr(module, "bind_operands", None) is real):
            monkeypatch.setattr(module, "bind_operands", counting)
    sim = simulator_for(desc, engine)
    for storage, contents in workload.preload.items():
        for index, value in contents.items():
            sim.write(storage, value, index)
    sim.load_words(program.words, program.origin)
    decoded = [sim.disassembler.disassemble(word) for word in program.words]
    operations = sum(len(d.operations) for d in decoded)
    assert len(calls) == operations
    sim.run_to_completion()
    assert len(calls) == operations


def test_prepare_leaves_out_empty_operations(spam_desc):
    # a SPAM word with one busy field: the nops filling the other six are
    # decoded and counted, but a load prepares nothing of them to execute
    sim = XSim(spam_desc)
    load(sim, "fmul r8, r9, r10\nhalt\n")
    fmul, halt = sim.scheduler.program.prepared
    assert len(fmul.decoded.operations) == len(spam_desc.fields)
    assert [op.name for op, _ in fmul.bound] == ["fmul"]
    assert [op.name for op, _ in halt.bound] == ["halt"]
    sim.write("RF", 0x40000000, 9)   # 2.0f
    sim.write("RF", 0x40400000, 10)  # 3.0f
    stats = sim.run_to_completion()
    assert sim.read("RF", 8) == 0x40C00000  # 6.0f
    assert stats.op_counts[("FP1", "fnop")] == 2
