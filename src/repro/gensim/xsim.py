"""The XSIM simulator facade (paper §3).

An :class:`XSim` instance is "the generated simulator": cycle-accurate and
bit-true by construction, with off-line disassembly at load time, state
monitors, breakpoints with attached commands, and execution-trace output.
It wires together the six parts of paper Fig. 2 — user interface / file I/O
(:mod:`repro.gensim.cli`), scheduler, state monitors, state, disassembler,
and processing core.  Loading does every per-instruction resolution once:
each word is decoded, its operands are bound and its cycle cost is summed,
so a run only evaluates RTL (:class:`~repro.gensim.core.ProcessingCore`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .. import obs
from ..encoding.signature import SignatureTable
from ..errors import SimulationError
from ..isdl import ast
from .core import ProcessingCore
from .disassembler import Disassembler
from .hazards import HazardAnalyzer
from .monitors import Monitor
from .scheduler import (
    Breakpoint,
    LoadedProgram,
    Scheduler,
    prepare_instruction,
)
from .state import State
from .stats import RunResult, SimulationStats
from .trace import TraceSink


class XSim:
    """A generated instruction-level simulator for one ISDL description."""

    def __init__(self, desc: ast.Description,
                 table: Optional[SignatureTable] = None):
        self.desc = desc
        self.table = table or SignatureTable(desc)
        self.state = State(desc)
        self.core = ProcessingCore()
        self.disassembler = Disassembler(desc, self.table)
        self.hazards = HazardAnalyzer(desc)
        self.scheduler = Scheduler(desc, self.state, self.core)
        self.program: Optional[LoadedProgram] = None

    # ------------------------------------------------------------------
    # Loading (off-line disassembly happens here — paper §3.1)
    # ------------------------------------------------------------------

    def load_words(self, words: Sequence[int], origin: int = 0) -> LoadedProgram:
        """Load raw instruction words; disassembles the program off-line
        and binds each instruction's operands once, for the hazard
        profile and the processing core alike."""
        decoded = [self.disassembler.disassemble(word) for word in words]
        prepared = [prepare_instruction(self.desc, d) for d in decoded]
        stalls = self.hazards.stalls_for_program(prepared)
        program = LoadedProgram(list(words), decoded, prepared, stalls,
                                self.desc, origin)
        self.program = program
        self.scheduler.attach_program(program)
        return program

    def load_binary(self, path: str, origin: int = 0) -> LoadedProgram:
        """Load a binary file (one hex word per line) and disassemble it."""
        words = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if line:
                    words.append(int(line, 16))
        return self.load_words(words, origin)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Reset cycle counts and the PC (state contents persist)."""
        self.scheduler.reset()

    def step(self) -> bool:
        """Execute a single instruction."""
        return self.scheduler.step()

    def run(self, max_steps: int = 1_000_000,
            honor_breakpoints: bool = True) -> RunResult:
        """Run to halt/breakpoint; returns statistics plus the stop reason.

        The result is a :class:`RunResult` — a full
        :class:`SimulationStats` whose :attr:`~RunResult.halt_reason` field
        carries what used to be the bare string return value.
        """
        monitors = self.state.monitors
        hits_before = monitors.hits_total
        with obs.span("sim.run", backend="xsim", desc=self.desc.name):
            reason = self.scheduler.run(max_steps, honor_breakpoints)
        result = RunResult.from_stats(self.stats, reason)
        if obs.enabled():
            obs.add("sim.runs")
            obs.add("sim.cycles", result.cycles)
            obs.add("sim.instructions", result.instructions)
            obs.add("sim.monitor_hits", monitors.hits_total - hits_before)
        return result

    def run_to_completion(self, max_steps: int = 1_000_000) -> RunResult:
        """Run until the halt flag rises; raise if it never does."""
        result = self.run(max_steps, honor_breakpoints=False)
        if result.halt_reason != "halted":
            raise SimulationError(
                f"program did not halt within {max_steps} steps"
            )
        return result

    @property
    def cycle(self) -> int:
        return self.scheduler.cycle

    @property
    def halted(self) -> bool:
        return self.scheduler.halted

    @property
    def stats(self) -> SimulationStats:
        return self.scheduler.stats

    # ------------------------------------------------------------------
    # State access (examine/set in the paper's UI)
    # ------------------------------------------------------------------

    def read(self, name: str, index: Optional[int] = None) -> int:
        return self.state.read(name, index)

    def write(self, name: str, value: int, index: Optional[int] = None) -> None:
        self.state.write(name, value, index)

    # ------------------------------------------------------------------
    # Debugging facilities (paper §3.1)
    # ------------------------------------------------------------------

    def set_breakpoint(self, address: int,
                       commands: Iterable[str] = ()) -> Breakpoint:
        bp = Breakpoint(address, commands=list(commands))
        self.scheduler.breakpoints[address] = bp
        return bp

    def clear_breakpoint(self, address: int) -> None:
        self.scheduler.breakpoints.pop(address, None)

    def watch(self, storage: str, index: Optional[int] = None,
              callback=None, label: str = "") -> Monitor:
        """Attach a state monitor; default callback records a message."""
        return self.state.monitors.watch(storage, index, callback, label)

    @property
    def monitor_messages(self) -> List[str]:
        return self.state.monitors.messages

    def set_trace(self, sink: Optional[TraceSink]) -> None:
        self.scheduler.trace = sink

    def disassembly_listing(self) -> List[str]:
        """The off-line disassembly of the loaded program."""
        if self.program is None:
            return []
        return [
            f"0x{self.program.origin + i:04x}: {text}"
            for i, text in enumerate(self.program.texts)
        ]
