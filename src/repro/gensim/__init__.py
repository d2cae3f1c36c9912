"""GENSIM — simulator generation (paper section 3)."""

from .compiled import CompiledSimulator
from .disassembler import DecodedInstruction, DecodedOperation, Disassembler
from .generator import emit_source, generate_simulator, write_source
from .monitors import Monitor, MonitorSet
from .protocol import Simulator, simulator_for
from .render import render_instruction, render_operation
from .scheduler import Breakpoint, LoadedProgram, Scheduler
from .state import State
from .stats import RunResult, SimulationStats
from .trace import CallbackTrace, FileTrace, ListTrace, TraceRecord, open_trace_file
from .xsim import XSim

__all__ = [
    "CompiledSimulator",
    "Simulator",
    "simulator_for",
    "RunResult",
    "DecodedInstruction",
    "DecodedOperation",
    "Disassembler",
    "emit_source",
    "generate_simulator",
    "write_source",
    "Monitor",
    "MonitorSet",
    "render_instruction",
    "render_operation",
    "Breakpoint",
    "LoadedProgram",
    "Scheduler",
    "State",
    "SimulationStats",
    "CallbackTrace",
    "FileTrace",
    "ListTrace",
    "TraceRecord",
    "open_trace_file",
    "XSim",
]
