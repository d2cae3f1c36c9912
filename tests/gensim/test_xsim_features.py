"""Tests for XSIM debugging features: monitors, traces, listings (§3.1)."""

import io

import pytest

from repro.asm import Assembler
from repro.gensim.trace import (
    CallbackTrace,
    FileTrace,
    ListTrace,
    TraceRecord,
)
from repro.gensim.xsim import XSim


@pytest.fixture
def sim(risc16_desc):
    sim = XSim(risc16_desc)
    program = Assembler(risc16_desc).assemble(
        "ldi r0, #3\nadd r1, r1, r0\nst (r2), r1\nhalt\n"
    )
    sim.load_words(program.words, program.origin)
    return sim


def test_state_monitor_records_message(sim):
    sim.watch("RF", 1)
    sim.run_to_completion()
    assert any("RF[1]" in m for m in sim.monitor_messages)


def test_monitor_custom_callback(sim):
    changes = []
    sim.watch("DM", callback=lambda s, i, o, n: changes.append((i, n)))
    sim.run_to_completion()
    assert changes == [(0, 3)]


def test_monitor_counts_hits(sim):
    monitor = sim.watch("RF")
    sim.run_to_completion()
    assert monitor.hits >= 2


def test_list_trace_records_every_instruction(sim):
    trace = ListTrace()
    sim.set_trace(trace)
    sim.run_to_completion()
    assert len(trace.records) == 4
    assert trace.records[0].address == 0
    assert "ldi" in trace.records[0].disassembly.lower()
    cycles = [r.cycle for r in trace.records]
    assert cycles == sorted(cycles)


def test_callback_trace(sim):
    seen = []
    sim.set_trace(CallbackTrace(seen.append))
    sim.run_to_completion()
    assert len(seen) == 4
    assert isinstance(seen[0], TraceRecord)


def test_file_trace_format(sim):
    stream = io.StringIO()
    sim.set_trace(FileTrace(stream))
    sim.run_to_completion()
    sim.scheduler.trace.close()
    lines = stream.getvalue().splitlines()
    assert len(lines) == 4
    assert "0x000000" in lines[0]


def test_disassembly_listing(sim):
    listing = sim.disassembly_listing()
    assert len(listing) == 4
    assert listing[0].startswith("0x0000:")
    assert "halt" in listing[-1]


def test_texts_render_on_first_use(sim, risc16_desc):
    from repro.gensim import render_instruction

    program = sim.program
    assert program._texts is None  # loading renders nothing
    sim.run_to_completion()
    assert program._texts is None  # nor does an untraced run
    expected = [render_instruction(risc16_desc, ins)
                for ins in program.decoded]
    assert program.texts == expected
    assert program.texts is program.texts  # rendered once
    assert [line.split(": ", 1)[1]
            for line in sim.disassembly_listing()] == expected


def test_listing_renders_nt_operands(risc16_desc):
    sim = XSim(risc16_desc)
    program = Assembler(risc16_desc).assemble("add r1, r2, #7\nhalt\n")
    sim.load_words(program.words)
    listing = sim.disassembly_listing()
    assert "#7" in listing[0]
    assert "R1" in listing[0] and "R2" in listing[0]


def test_read_write_passthrough(sim):
    sim.write("DM", 0x1234, 5)
    assert sim.read("DM", 5) == 0x1234


def test_generator_validates(risc16_desc):
    from repro.gensim import generate_simulator

    sim = generate_simulator(risc16_desc)
    assert sim.desc is risc16_desc


def test_generator_rejects_ambiguous_description():
    from repro.errors import IsdlSemanticError
    from repro.gensim import generate_simulator
    from repro.isdl import load_string

    desc = load_string('''
processor "AMB"
section format
    word 8
end
section storage
    instruction_memory IM width 8 depth 8
    register ACC width 8
    program_counter PC width 3
end
section instruction_set
    field EX
        operation a()
            encoding { bits[7] = 0b1 }
        operation b()
            encoding { bits[6] = 0b1 }
    end
end
''')
    with pytest.raises(IsdlSemanticError):
        generate_simulator(desc)


def test_emit_source_is_importable(tmp_path, mini_desc):
    from repro.gensim import write_source

    path = tmp_path / "mini_sim.py"
    write_source(mini_desc, str(path))
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    sim = namespace["make_simulator"]()
    # addi R1, R0, 5 ; halt
    sim.load_words([0b0001_01_00_0101_0000, 0b1111 << 12])
    sim.run_to_completion()
    assert sim.read("RF", 1) == 5


def test_load_binary_from_hex_file(tmp_path, mini_desc):
    sim = XSim(mini_desc)
    path = tmp_path / "prog.hex"
    path.write_text("1450  # addi R1, R0, 5\nf000\n")
    sim.load_binary(str(path))
    sim.run_to_completion()
    assert sim.read("RF", 1) == 5
