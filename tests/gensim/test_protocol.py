"""Tests for the unified Simulator protocol and the XSim.run reconciliation."""

import os
import subprocess
import sys

import pytest

from repro.asm import assemble
from repro.gensim import (
    CompiledSimulator,
    RunResult,
    SimulationStats,
    Simulator,
    XSim,
    simulator_for,
)

SOURCE = """
    ldi r1, #5
    ldi r2, #7
    add r3, r1, r2
    halt
"""
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


@pytest.fixture(scope="module")
def program(risc16_desc):
    return assemble(risc16_desc, SOURCE)


def load(sim, program):
    sim.load_words(program.words, program.origin)
    return sim


# ----------------------------------------------------------------------
# The protocol: both backends conform, code needs no special-casing
# ----------------------------------------------------------------------


def test_backends_satisfy_protocol(risc16_desc):
    assert isinstance(XSim(risc16_desc), Simulator)
    assert isinstance(CompiledSimulator(risc16_desc), Simulator)


def test_simulator_for_backends(risc16_desc):
    assert isinstance(simulator_for(risc16_desc, "xsim"), XSim)
    assert isinstance(
        simulator_for(risc16_desc, "compiled"), CompiledSimulator
    )
    interp = simulator_for(risc16_desc, "interpretive")
    assert isinstance(interp, XSim)
    assert isinstance(simulator_for(risc16_desc, "block"), CompiledSimulator)
    with pytest.raises(ValueError):
        simulator_for(risc16_desc, "quantum")


def test_importing_the_simulators_leaves_control_flow_analysis_unloaded():
    # only the static analyzer's dataflow reads gensim.cfg: importing the
    # simulators, or the service that runs them, does not load it
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, repro.gensim, repro.serve.cli; "
            "print('repro.gensim.cfg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("backend", ["xsim", "interpretive", "compiled"])
def test_protocol_run_is_backend_agnostic(risc16_desc, program, backend):
    sim = load(simulator_for(risc16_desc, backend), program)
    stats = sim.run_to_completion()
    assert isinstance(stats, SimulationStats)
    assert stats.cycles > 0
    assert sim.read("RF", 3) == 12
    assert sim.stats.cycles == stats.cycles


def test_backends_agree_cycle_for_cycle(risc16_desc, program):
    runs = {}
    for backend in ("xsim", "compiled"):
        sim = load(simulator_for(risc16_desc, backend), program)
        stats = sim.run_to_completion()
        runs[backend] = (stats.cycles, stats.instructions,
                         sim.read("RF", 3))
    assert runs["xsim"] == runs["compiled"]


def test_compiled_reset_allows_rerun(risc16_desc, program):
    sim = load(simulator_for(risc16_desc, "compiled"), program)
    first = sim.run_to_completion()
    sim.write("HALTED", 0)  # state persists across reset, clear by hand
    sim.reset()
    assert sim.stats.cycles == 0
    second = sim.run_to_completion()
    assert second.cycles == first.cycles
    assert sim.read("RF", 3) == 12


# ----------------------------------------------------------------------
# XSim.run: SimulationStats result + deprecation shim
# ----------------------------------------------------------------------


def test_run_returns_stats_with_halt_reason(risc16_desc, program):
    sim = load(XSim(risc16_desc), program)
    result = sim.run()
    assert isinstance(result, RunResult)
    assert isinstance(result, SimulationStats)
    assert result.halt_reason == "halted"
    assert result.cycles == sim.cycle
    assert result.instructions > 0


def test_run_reports_max_steps(risc16_desc, program):
    sim = load(XSim(risc16_desc), program)
    result = sim.run(max_steps=1)
    assert result.halt_reason == "max_steps"


def test_run_breakpoint_carries_live_cycles(risc16_desc, program):
    sim = load(XSim(risc16_desc), program)
    sim.set_breakpoint(2)
    result = sim.run()
    assert result.halt_reason == "breakpoint"
    assert result.cycles == sim.cycle > 0


def test_string_comparison_is_gone(risc16_desc, program):
    """The ``run() == "halted"`` deprecation shim has been removed; the
    comparison now falls back to default (identity) semantics."""
    sim = load(XSim(risc16_desc), program)
    result = sim.run()
    assert result.halt_reason == "halted"
    assert not (result == "halted")
    assert result != "halted"


def test_run_result_equality_against_stats(risc16_desc, program):
    sim = load(XSim(risc16_desc), program)
    result = sim.run()
    clone = RunResult.from_stats(result, result.halt_reason)
    assert result == clone
    assert result != RunResult.from_stats(result, "breakpoint")


def test_compiled_run_reports_halt_reason(risc16_desc, program):
    sim = load(CompiledSimulator(risc16_desc), program)
    result = sim.run()
    assert result.halt_reason == "halted"


def test_xsim_accepts_prebuilt_table(risc16_desc, program):
    from repro.cache import ArtifactCache

    cache = ArtifactCache()
    table = cache.signature_table(risc16_desc)
    sim = XSim(risc16_desc, table=table)
    assert sim.table is table
    load(sim, program)
    assert sim.run_to_completion().cycles > 0
