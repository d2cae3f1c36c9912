"""The XSIM scheduler (paper Fig. 2, part 2).

"The scheduler is responsible for sequencing the instructions during
execution, managing breakpoints, dumping the execution traces to a file or
processing program, and dispatching attached commands back to the user
interface for processing."

Cycle model
-----------
``cycle`` counts completed cycles.  One :meth:`step`:

1. commits every pending (delayed) write that has come due — so results with
   latency 1 are visible to this instruction;
2. charges the statically computed stall cycles for the fetch address and
   commits anything that came due during the stall;
3. executes the instruction at the PC through the processing core (all reads
   see pre-cycle state; writes accumulate) and counts one execution of its
   address — the only per-step statistic; :attr:`Scheduler.stats` derives
   the rest when it is read;
4. schedules the produced writes: a write with latency *L* comes due
   ``L - 1`` cycles after this instruction retires (action writes commit
   before side-effect writes of the same cycle);
5. advances the cycle counter by the instruction's cycle cost and sets the
   default next PC (``address + size``); a committed PC write from a branch
   overrides it on the next step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..isdl import ast
from .core import (
    BoundNt,
    PendingWrite,
    ProcessingCore,
    bind_operands,
    instruction_cycles,
)
from .disassembler import DecodedInstruction
from .render import render_instruction
from .state import State, check_fits
from .stats import SimulationStats
from .trace import TraceRecord, TraceSink


@dataclass
class PreparedInstruction:
    """Per-address execution data resolved once at load time."""

    decoded: DecodedInstruction
    #: ((operation, bound operands), ...) in field order, empty ones left out
    bound: Tuple[Tuple[ast.Operation, Dict[str, object]], ...]
    cycles: int
    size: int
    #: the field of each operation in ``bound``
    fields: Tuple[str, ...]


def prepare_instruction(desc: ast.Description,
                        decoded: DecodedInstruction) -> PreparedInstruction:
    """Resolve each operation, bind its operands and sum the cycle cost:
    the work that off-line disassembly lets a load do once.

    Every executor and the hazard analyzer read the bindings of this one
    record, so a load binds each decoded operation exactly once.  Cycle
    cost and size count every operation, but ``bound`` keeps only those
    an execution must run: an empty operation (a nop filling an idle
    field) with no non-terminal operand writes nothing and occupies no
    unit.  Statistics are derived from the decoded words, so they still
    count it.
    """
    bound, live, fields = [], [], []
    size = 1
    for dop in decoded.operations:
        op = desc.operation(dop.field, dop.op_name)
        env = bind_operands(desc, op.params, dop.operands)
        bound.append((op, env))
        size = max(size, op.costs.size)
        if (op.action or op.side_effect
                or any(isinstance(operand, BoundNt)
                       for operand in env.values())):
            live.append((op, env))
            fields.append(dop.field)
    return PreparedInstruction(decoded, tuple(live),
                               instruction_cycles(bound), size,
                               tuple(fields))


@dataclass
class LoadedProgram:
    """The result of off-line disassembly at load time (paper §3.1)."""

    words: List[int]
    decoded: List[DecodedInstruction]
    #: the load-time record of each word (:func:`prepare_instruction`)
    prepared: List[PreparedInstruction]
    stalls: List[int]
    desc: ast.Description = field(repr=False, compare=False)
    origin: int = 0
    _texts: Optional[List[str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.words)

    @property
    def texts(self) -> List[str]:
        """The assembly text of each word, rendered on first use (trace
        records and disassembly listings read it; a plain run never does).
        """
        if self._texts is None:
            self._texts = [
                render_instruction(self.desc, decoded)
                for decoded in self.decoded
            ]
        return self._texts


@dataclass
class Breakpoint:
    """A breakpoint with optional attached commands (paper §3.1)."""

    address: int
    enabled: bool = True
    hits: int = 0
    commands: List[str] = field(default_factory=list)


class Scheduler:
    """Sequences decoded instructions against a :class:`State`."""

    def __init__(
        self,
        desc: ast.Description,
        state: State,
        core: ProcessingCore,
    ):
        self.desc = desc
        self.state = state
        self.core = core
        self.program: Optional[LoadedProgram] = None
        self.cycle = 0
        self.stall_cycles = 0
        #: executions per program address (index = address - origin)
        self.counts: List[int] = []
        self.breakpoints: Dict[int, Breakpoint] = {}
        self.trace: Optional[TraceSink] = None
        #: called with each attached-command string when a breakpoint hits
        self.command_dispatcher: Optional[Callable[[str], None]] = None
        self._pending: List = []  # heap of (due, seq, PendingWrite)
        self._seq = 0
        self._halt_flag = desc.attributes.get("halt_flag")

    # ------------------------------------------------------------------
    # Program management
    # ------------------------------------------------------------------

    def attach_program(self, program: LoadedProgram) -> None:
        """Install a loaded program and copy it into instruction memory."""
        check_fits(self.desc, program.origin, len(program.words))
        self.program = program
        im = self.desc.instruction_memory()
        for offset, word in enumerate(program.words):
            self.state.write(im.name, word, index=program.origin + offset)
        self.counts = [0] * len(program)
        self.state.pc = program.origin

    def reset(self) -> None:
        """Reset execution state (cycle counter, pending writes, stats)."""
        self.cycle = 0
        self.stall_cycles = 0
        self.counts = [0] * len(self.counts)
        self._pending = []
        self._seq = 0
        if self.program is not None:
            self.state.pc = self.program.origin

    # ------------------------------------------------------------------
    # Halt / status
    # ------------------------------------------------------------------

    @property
    def halted(self) -> bool:
        if self._halt_flag is None:
            return False
        return self.state.read(self._halt_flag) != 0

    @property
    def stats(self) -> SimulationStats:
        """Statistics so far, derived from the per-address counts."""
        decoded = self.program.decoded if self.program is not None else []
        return SimulationStats.from_counts(
            self.desc, decoded, self.counts,
            cycles=self.cycle, stall_cycles=self.stall_cycles,
        )

    # ------------------------------------------------------------------
    # Write-back queue
    # ------------------------------------------------------------------

    def _schedule_writes(self, writes: List[PendingWrite], due: int) -> None:
        for write in writes:
            heapq.heappush(
                self._pending, (due + write.delay, self._seq, write)
            )
            self._seq += 1

    def _commit_due(self) -> None:
        while self._pending and self._pending[0][0] <= self.cycle:
            _, _, write = heapq.heappop(self._pending)
            self.state.write(
                write.storage, write.value, write.index, write.hi, write.lo
            )

    def drain(self) -> None:
        """Commit every outstanding write regardless of due time.

        Used when a run ends so final state comparisons (and tests) see the
        architected result of the last instructions.
        """
        while self._pending:
            _, _, write = heapq.heappop(self._pending)
            self.state.write(
                write.storage, write.value, write.index, write.hi, write.lo
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute one instruction; False if already halted."""
        if self.program is None:
            raise SimulationError("no program loaded")
        self._commit_due()
        if self.halted:
            return False
        address = self.state.pc
        offset = address - self.program.origin
        self._charge_stalls(offset)
        prepared = self._fetch(offset, address)
        result = self.core.execute(self.state, prepared)
        self.counts[offset] += 1
        if self.trace is not None:
            self.trace.emit(TraceRecord(
                self.cycle, address, prepared.decoded.word,
                self.program.texts[offset],
            ))
        retire = self.cycle + result.cycles
        self._schedule_writes(result.action_writes, retire)
        self._schedule_writes(result.side_effect_writes, retire)
        self.cycle = retire
        self.state.pc = address + prepared.size
        return True

    def _charge_stalls(self, offset: int) -> None:
        stalls = self.program.stalls
        if 0 <= offset < len(stalls):
            stall = stalls[offset]
            if stall:
                self.cycle += stall
                self.stall_cycles += stall
                self._commit_due()

    def _fetch(self, offset: int, address: int) -> PreparedInstruction:
        program = self.program
        if not 0 <= offset < len(program.prepared):
            raise SimulationError(
                f"PC 0x{address:x} outside the loaded program"
            )
        return program.prepared[offset]

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------

    def run(self, max_steps: int = 1_000_000,
            honor_breakpoints: bool = True) -> str:
        """Run until halt, breakpoint, or *max_steps*.

        Returns ``"halted"``, ``"breakpoint"`` or ``"max_steps"``.  When a
        breakpoint with attached commands is hit, the commands are handed to
        :attr:`command_dispatcher` (paper: "dispatching attached commands
        back to the user interface for processing").
        """
        steps = 0
        while steps < max_steps:
            if honor_breakpoints and steps > 0:
                bp = self.breakpoints.get(self.state.pc)
                if bp is not None and bp.enabled:
                    bp.hits += 1
                    self._dispatch_commands(bp)
                    return "breakpoint"
            if not self.step():
                self.drain()
                return "halted"
            steps += 1
            if self.halted:
                # halt flags written with latency 1 commit on the next
                # _commit_due; force visibility now for the caller
                self.drain()
                return "halted"
            # Peek: a pending halt write coming due exactly now.
            self._commit_due()
            if self.halted:
                self.drain()
                return "halted"
        self.drain()
        return "max_steps"

    def _dispatch_commands(self, bp: Breakpoint) -> None:
        if self.command_dispatcher is None:
            return
        for command in bp.commands:
            self.command_dispatcher(command)
