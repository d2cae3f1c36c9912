"""ILS ↔ hardware-model co-simulation across every architecture.

The paper's central correctness claim (§3.1, §6.1): both generated models
are bit-true by construction, so they must agree on every storage element.
"""

import pytest

from repro.arch import ARCHITECTURES, description_for, workloads_for
from repro.asm import Assembler
from repro.errors import SimulationError
from repro.hgen import synthesize
from repro.vsim import cosimulate

ALL_CASES = [
    (arch, workload)
    for arch in sorted(ARCHITECTURES)
    for workload in workloads_for(arch)
]


@pytest.fixture(scope="module")
def models():
    return {
        arch: synthesize(description_for(arch))
        for arch in sorted(ARCHITECTURES)
    }


@pytest.mark.parametrize(
    "arch,workload", ALL_CASES, ids=[f"{a}-{w.name}" for a, w in ALL_CASES]
)
def test_cosimulation_bit_exact(arch, workload, models):
    desc = description_for(arch)
    program = Assembler(desc).assemble(workload.source)
    result = cosimulate(
        desc,
        models[arch].netlist,
        program.words,
        program.origin,
        preload=workload.preload,
    )
    assert result.ok, result.mismatches[:5]


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_cosimulation_without_sharing(arch):
    desc = description_for(arch)
    model = synthesize(desc, share=False)
    for workload in workloads_for(arch)[:1]:
        program = Assembler(desc).assemble(workload.source)
        result = cosimulate(
            desc, model.netlist, program.words, program.origin,
            preload=workload.preload,
        )
        assert result.ok, result.mismatches[:5]


def test_cosimulation_rejects_hazardful_program(spam_desc, models):
    program = Assembler(spam_desc).assemble(
        "fadd r1, r2, r3\nfadd r4, r1, r1\nhalt\n"
    )
    with pytest.raises(SimulationError):
        cosimulate(spam_desc, models["spam"].netlist, program.words)


def test_cosim_reports_cycle_counts(risc16_desc, models):
    program = Assembler(risc16_desc).assemble("ldi r0, #1\nhalt\n")
    result = cosimulate(
        risc16_desc, models["risc16"].netlist, program.words
    )
    assert result.ils_cycles >= 2
    assert result.hw_cycles >= 2


def test_compare_state_detects_difference(risc16_desc, models):
    from repro.gensim.xsim import XSim
    from repro.vsim import NetlistSimulator, compare_state

    ils = XSim(risc16_desc)
    hw = NetlistSimulator(risc16_desc, models["risc16"].netlist)
    ils.write("RF", 1, 0)
    mismatches = compare_state(risc16_desc, ils, hw)
    assert any("RF[0]" in m for m in mismatches)


def _acc8_with_preinc():
    """ACC8 plus a pre-increment option and two operations that take it:
    ``touch`` never reads its operand, ``clobber`` writes the index
    register the option's action also writes."""
    from repro.arch import acc8
    from repro.isdl import load_string

    source = acc8.ISDL_SOURCE.replace(
        "            cost cycle 1\n    end",
        "            cost cycle 1\n"
        "        option preinc()\n"
        '            syntax "+(X)"\n'
        "            encoding { bits[9:8] = 0b11 }\n"
        "            action { X <- X + 1; $$ <- DM[X + 1]; }\n"
        "    end",
    ).replace(
        "        operation halt()",
        "        operation touch(m: MEMOP)\n"
        "            encoding { bits[15:12] = 0b1101; bits[9:0] = m }\n"
        "            action { ACC <- 5; }\n\n"
        "        operation clobber(m: MEMOP)\n"
        "            encoding { bits[15:12] = 0b1110; bits[9:0] = m }\n"
        "            action { X <- 9; ACC <- m; }\n\n"
        "        operation halt()",
    )
    return load_string(source, filename="acc8-preinc.isdl")


@pytest.mark.parametrize("op,x_acc", [("touch", (4, 5)), ("clobber", (9, 0))])
def test_option_action_runs_once_before_the_operation(op, x_acc):
    # an option's action runs once per execution, before the operation's
    # own action, whether or not the operation reads the operand — on the
    # reference interpreter exactly as on the compiled engine and the
    # hardware
    from repro.gensim.protocol import simulator_for

    desc = _acc8_with_preinc()
    program = Assembler(desc).assemble(f"ldx #3\n{op} +(X)\nhalt\n")
    finals = {}
    for backend in ("xsim", "compiled"):
        sim = simulator_for(desc, backend)
        sim.load_words(program.words, program.origin)
        sim.run_to_completion(100)
        finals[backend] = (sim.read("X"), sim.read("ACC"))
    assert set(finals.values()) == {x_acc}, finals
    result = cosimulate(desc, synthesize(desc).netlist, program.words,
                        program.origin)
    assert result.ok, result.mismatches
