"""Compiled-code simulation (paper §6.2: "Additional speedups can be
obtained by a move to compiled-code simulators").

Where the interpretive XSIM walks the RTL AST on every execution, the
compiled simulator translates each *loaded instruction* into a closure tree
at load time: operand values are burned in as constants, storage accesses
become direct list/dict operations, and the two-phase semantics are
preserved by having the closures compute into a write list that the driver
commits.  Like real compiled-code simulators, the executable is specific to
one program (reload to change it) and trades the monitor hooks for speed —
state monitors are not serviced in this mode.

Cycle accounting (costs, static stalls, latency delays) is identical to the
interpretive scheduler, and the driver counts executions per address as
XSIM's does, so cycle counts, utilization statistics and final state match
XSIM exactly; ``tests/gensim/test_compiled.py`` asserts it.  Addressed
storages are bounds-checked on read and on commit with :class:`State`'s
error.

This is the one fast engine: :func:`~repro.gensim.simulator_for` builds
it for the backend names ``"compiled"`` and ``"block"``, and every
measurement runs on it unless its caller names ``"xsim"``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..encoding.bits import mask, set_bits
from ..errors import SimulationError
from ..isdl import ast, rtl
from .core import INTRINSIC_IMPLS, _BINOPS, BoundNt
from .disassembler import DecodedInstruction, Disassembler
from .hazards import HazardAnalyzer
from .scheduler import PreparedInstruction, prepare_instruction
from .state import check_fits, out_of_range
from .stats import RunResult, SimulationStats

#: an expression closure: (scalars, arrays) -> int
ExprFn = Callable[[dict, dict], int]
#: a statement closure appends (delay, phase, commit_fn) entries
StmtFn = Callable[[dict, dict, list], None]


def _make_commit(name: str, width: int, hi, lo, is_array: bool):
    """Build the commit closure for one resolved write location."""
    # default-arg binding (not closure cells) is deliberate: locals are
    # one dict lookup cheaper per commit on the hot path
    if hi is None:
        if is_array:
            def commit_fn(scalars, arrays, index, value,
                          _n=name, _m=mask(width)):  # noqa: B008
                array = arrays[_n]
                if not 0 <= index < len(array):
                    out_of_range(_n, index, len(array))
                array[index] = value & _m
        else:
            def commit_fn(scalars, arrays, index, value,
                          _n=name, _m=mask(width)):  # noqa: B008
                scalars[_n] = value & _m
    else:
        effective_lo = lo if lo is not None else hi

        if is_array:
            def commit_fn(scalars, arrays, index, value,
                          _n=name, _hi=hi, _lo=effective_lo):
                array = arrays[_n]
                if not 0 <= index < len(array):
                    out_of_range(_n, index, len(array))
                array[index] = set_bits(array[index], _hi, _lo, value)
        else:
            def commit_fn(scalars, arrays, index, value,
                          _n=name, _hi=hi, _lo=effective_lo):
                scalars[_n] = set_bits(scalars[_n], _hi, _lo, value)
    return commit_fn


class CompiledSimulator:
    """A program-specialized, cycle-accurate, bit-true simulator."""

    def __init__(self, desc: ast.Description, table=None):
        self.desc = desc
        self.disassembler = Disassembler(desc, table)
        self.hazards = HazardAnalyzer(desc)
        self.scalars: Dict[str, int] = {}
        self.arrays: Dict[str, List[int]] = {}
        self._widths: Dict[str, int] = {}
        for storage in desc.storages.values():
            self._widths[storage.name] = storage.width
            if storage.addressed:
                self.arrays[storage.name] = [0] * storage.depth
            else:
                self.scalars[storage.name] = 0
        self._pc = desc.program_counter().name
        self._halt = desc.attributes.get("halt_flag")
        self._program: List[Optional[Tuple[StmtFn, int, int]]] = []
        self._decoded: List[DecodedInstruction] = []
        self._stalls: List[int] = []
        self._origin = 0
        #: executions per program address (index = address - origin)
        self._counts: List[int] = []
        self.cycle = 0
        self.stall_cycles = 0
        self._pending: List = []
        self._seq = 0

    # ------------------------------------------------------------------
    # State access (for setup and result inspection)
    # ------------------------------------------------------------------

    def read(self, name: str, index: Optional[int] = None) -> int:
        if name in self.arrays:
            return self.arrays[name][index]
        return self.scalars[name]

    def write(self, name: str, value: int,
              index: Optional[int] = None) -> None:
        value &= mask(self._widths[name])
        if name in self.arrays:
            self.arrays[name][index] = value
        else:
            self.scalars[name] = value

    @property
    def halted(self) -> bool:
        return self._halt is not None and self.scalars.get(self._halt, 0) != 0

    @property
    def stats(self) -> SimulationStats:
        """Statistics so far, derived from the per-address counts."""
        return SimulationStats.from_counts(
            self.desc, self._decoded, self._counts,
            cycles=self.cycle, stall_cycles=self.stall_cycles,
        )

    @property
    def instructions(self) -> int:
        return sum(self._counts)

    def reset(self) -> None:
        """Reset cycle counts, pending writes and the PC; state persists.

        Mirrors :meth:`Scheduler.reset` so the two backends agree on what
        a reset means (the halt flag, like all state, is *not* cleared).
        """
        self.cycle = 0
        self.stall_cycles = 0
        self._counts = [0] * len(self._counts)
        self._pending = []
        self._seq = 0
        self.scalars[self._pc] = self._origin

    # ------------------------------------------------------------------
    # Loading: off-line disassembly + per-instruction compilation
    # ------------------------------------------------------------------

    def load_words(self, words: Sequence[int], origin: int = 0) -> None:
        check_fits(self.desc, origin, len(words))
        decoded = [self.disassembler.disassemble(word) for word in words]
        prepared = [prepare_instruction(self.desc, d) for d in decoded]
        self._decoded = decoded
        self._stalls = self.hazards.stalls_for_program(prepared)
        self._program = [self._compile_instruction(p) for p in prepared]
        self._origin = origin
        self._counts = [0] * len(words)
        im = self.desc.instruction_memory()
        for offset, word in enumerate(words):
            self.write(im.name, word, origin + offset)
        self.scalars[self._pc] = origin

    def _compile_instruction(self, prepared: PreparedInstruction):
        """Compile one load-time record to (closure, cycles, size).

        Only the operations the record keeps get closures.
        """
        stmt_fns: List[StmtFn] = []
        side_fns: List[StmtFn] = []
        for op, env in prepared.bound:
            delay = op.timing.latency - 1
            nt_prologue: List[StmtFn] = []
            compiled_env = self._compile_env(env, nt_prologue)
            stmt_fns.extend(nt_prologue)
            for stmt in op.action:
                stmt_fns.append(
                    self._compile_stmt(stmt, compiled_env, delay, phase=0)
                )
            for stmt in op.side_effect:
                side_fns.append(
                    self._compile_stmt(stmt, compiled_env, delay, phase=1)
                )
            for bound in env.values():
                if isinstance(bound, BoundNt) and bound.option.side_effect:
                    nt_delay = bound.option.timing.latency - 1
                    sub_env = self._compile_env(bound.env, [])
                    for stmt in bound.option.side_effect:
                        side_fns.append(
                            self._compile_stmt(
                                stmt, sub_env, nt_delay, phase=1
                            )
                        )
        fns = tuple(stmt_fns + side_fns)

        def execute(scalars, arrays, sink):
            for fn in fns:
                fn(scalars, arrays, sink)

        return execute, prepared.cycles, prepared.size

    # ------------------------------------------------------------------
    # Closure compilation
    # ------------------------------------------------------------------

    def _compile_env(self, env, nt_prologue: List[StmtFn]):
        """Turn a binding env into name -> ExprFn (NT values pre-evaluated
        into per-cycle slots filled by prologue closures)."""
        compiled: Dict[str, object] = {}
        for name, bound in env.items():
            if isinstance(bound, BoundNt):
                slot = [0]
                sub_env = self._compile_env(bound.env, nt_prologue)
                value_fn, writes = self._compile_nt_action(
                    bound.option, sub_env
                )
                delay = bound.option.timing.latency - 1

                def prologue(scalars, arrays, sink, _slot=slot,
                             _fn=value_fn, _writes=writes, _delay=delay):
                    _slot[0] = _fn(scalars, arrays)
                    for write_fn in _writes:
                        write_fn(scalars, arrays, sink)

                nt_prologue.append(prologue)
                compiled[name] = ("nt", slot, bound)
            else:
                compiled[name] = ("const", bound)
        return compiled

    def _compile_nt_action(self, option, sub_env):
        """Compile an option action into (value_fn, state-write closures)."""
        value_holder: Dict[str, ExprFn] = {}
        writes: List[StmtFn] = []
        for stmt in option.action:
            if isinstance(stmt, rtl.Assign) and isinstance(
                stmt.dest, rtl.NtLV
            ):
                value_holder["$$"] = self._compile_expr(
                    stmt.expr, sub_env, value_holder
                )
            else:
                writes.append(
                    self._compile_stmt(
                        stmt, sub_env, option.timing.latency - 1, phase=0,
                        nt_value=value_holder,
                    )
                )
        value_fn = value_holder.get("$$", lambda s, a: 0)
        return value_fn, writes

    def _compile_stmt(self, stmt, env, delay, phase,
                      nt_value=None) -> StmtFn:
        if isinstance(stmt, rtl.Assign):
            return self._compile_assign(stmt, env, delay, phase, nt_value)
        if isinstance(stmt, rtl.If):
            cond = self._compile_expr(stmt.cond, env, nt_value)
            then = tuple(
                self._compile_stmt(s, env, delay, phase, nt_value)
                for s in stmt.then
            )
            orelse = tuple(
                self._compile_stmt(s, env, delay, phase, nt_value)
                for s in stmt.orelse
            )

            def run_if(scalars, arrays, sink):
                branch = then if cond(scalars, arrays) else orelse
                for fn in branch:
                    fn(scalars, arrays, sink)

            return run_if
        raise SimulationError(f"cannot compile statement {stmt!r}")

    def _compile_assign(self, stmt, env, delay, phase, nt_value) -> StmtFn:
        value_fn = self._compile_expr(stmt.expr, env, nt_value)
        dest = stmt.dest
        if isinstance(dest, rtl.ParamLV):
            binding = env[dest.name]
            bound = binding[2]
            target = bound.option.storage_target()
            sub_env = self._compile_env(bound.env, [])
            dest = target
            # fall through with the transparent target as a StorageLV
            return self._compile_storage_write(
                dest, value_fn, sub_env, delay, phase, nt_value
            )
        if isinstance(dest, rtl.StorageLV):
            return self._compile_storage_write(
                dest, value_fn, env, delay, phase, nt_value
            )
        raise SimulationError(f"cannot compile destination {dest!r}")

    def _compile_storage_write(self, dest, value_fn, env, delay, phase,
                               nt_value) -> StmtFn:
        name, fixed_index, hi, lo = self._resolve_location(
            dest.storage, dest.hi, dest.lo
        )
        width = self._widths[name]
        is_array = name in self.arrays
        index_fn: Optional[ExprFn] = None
        if is_array:
            if dest.index is not None:
                index_fn = self._compile_expr(dest.index, env, nt_value)
            else:
                index_fn = lambda s, a, _v=fixed_index: _v

        commit_fn = _make_commit(name, width, hi, lo, is_array)

        def run(scalars, arrays, sink, _vfn=value_fn, _ifn=index_fn,
                _commit=commit_fn, _delay=delay, _phase=phase):
            index = _ifn(scalars, arrays) if _ifn is not None else None
            sink.append(
                (_delay, _phase, _commit, index, _vfn(scalars, arrays))
            )

        return run

    def _resolve_location(self, name, hi, lo):
        if name in self.desc.storages:
            return name, None, hi, lo
        alias = self.desc.aliases[name]
        storage = self.desc.storages[alias.storage]
        alias_hi, alias_lo = alias.hi, alias.lo
        fixed_index = alias.index if storage.addressed else None
        if not storage.addressed and alias.index is not None:
            alias_hi = alias_lo = alias.index
        if alias_lo is None:
            alias_lo = alias_hi
        if alias_hi is None:
            return storage.name, fixed_index, hi, lo
        if hi is None:
            return storage.name, fixed_index, alias_hi, alias_lo
        effective_lo = lo if lo is not None else hi
        return (
            storage.name, fixed_index, alias_lo + hi,
            alias_lo + effective_lo,
        )

    def _compile_expr(self, expr, env, nt_value) -> ExprFn:
        if isinstance(expr, rtl.IntLit):
            value = expr.value
            return lambda s, a: value
        if isinstance(expr, rtl.ParamRef):
            binding = env[expr.name]
            if binding[0] == "const":
                value = binding[1]
                return lambda s, a: value
            slot = binding[1]
            return lambda s, a: slot[0]
        if isinstance(expr, rtl.NtValue):
            if nt_value is None or "$$" not in nt_value:
                raise SimulationError("'$$' read before assignment")
            inner = nt_value["$$"]
            return inner
        if isinstance(expr, rtl.StorageRead):
            return self._compile_read(expr, env, nt_value)
        if isinstance(expr, rtl.BinOp):
            left = self._compile_expr(expr.left, env, nt_value)
            right = self._compile_expr(expr.right, env, nt_value)
            if expr.op == "&&":
                return lambda s, a: int(bool(left(s, a)) and bool(right(s, a)))
            if expr.op == "||":
                return lambda s, a: int(bool(left(s, a)) or bool(right(s, a)))
            fn = _BINOPS[expr.op]
            return lambda s, a: fn(left(s, a), right(s, a))
        if isinstance(expr, rtl.UnOp):
            operand = self._compile_expr(expr.operand, env, nt_value)
            if expr.op == "~":
                return lambda s, a: ~operand(s, a)
            if expr.op == "-":
                return lambda s, a: -operand(s, a)
            return lambda s, a: int(not operand(s, a))
        if isinstance(expr, rtl.Cond):
            cond = self._compile_expr(expr.cond, env, nt_value)
            then = self._compile_expr(expr.then, env, nt_value)
            other = self._compile_expr(expr.other, env, nt_value)
            return lambda s, a: then(s, a) if cond(s, a) else other(s, a)
        if isinstance(expr, rtl.Call):
            impl = INTRINSIC_IMPLS[expr.func]
            arg_fns = tuple(
                self._compile_expr(arg, env, nt_value) for arg in expr.args
            )
            return lambda s, a: impl(*(fn(s, a) for fn in arg_fns))
        raise SimulationError(f"cannot compile expression {expr!r}")

    def _compile_read(self, expr, env, nt_value) -> ExprFn:
        name, fixed_index, hi, lo = self._resolve_location(
            expr.storage, expr.hi, expr.lo
        )
        effective_lo = lo if lo is not None else hi
        if name not in self.arrays:
            if hi is None:
                return lambda s, a, _n=name: s[_n]
            m = mask(hi - effective_lo + 1)
            return (
                lambda s, a, _n=name, _lo=effective_lo, _m=m:
                (s[_n] >> _lo) & _m
            )
        if expr.index is not None:
            index_fn = self._compile_expr(expr.index, env, nt_value)
        else:
            index_fn = lambda s, a, _v=fixed_index: _v
        depth = len(self.arrays[name])

        def element(s, a, _n=name, _i=index_fn, _d=depth):
            index = _i(s, a)
            if not 0 <= index < _d:
                out_of_range(_n, index, _d)
            return a[_n][index]

        if hi is None:
            return element
        m = mask(hi - effective_lo + 1)
        return (
            lambda s, a, _e=element, _lo=effective_lo, _m=m:
            (_e(s, a) >> _lo) & _m
        )

    # ------------------------------------------------------------------
    # Driver loop (mirrors the interpretive scheduler)
    # ------------------------------------------------------------------

    def run_to_completion(self, max_steps: int = 5_000_000) -> RunResult:
        """Run until the halt flag rises; raise if it never does.

        (The driver loop below already raises on ``max_steps``, so this is
        :meth:`run` under the protocol's name.)
        """
        return self.run(max_steps)

    def run(self, max_steps: int = 5_000_000) -> RunResult:
        instructions_before = self.instructions
        cycles_before = self.cycle
        scalars, arrays = self.scalars, self.arrays
        pending = self._pending
        origin = self._origin
        program = self._program
        stalls = self._stalls
        pc_name = self._pc
        halt = self._halt
        counts = self._counts
        steps = 0
        sink: List = []
        with obs.span("sim.run", backend="compiled", desc=self.desc.name):
            while True:
                # commit due writes
                while pending and pending[0][0] <= self.cycle:
                    _, _, _, commit, index, value = heapq.heappop(pending)
                    commit(scalars, arrays, index, value)
                if halt is not None and scalars.get(halt, 0):
                    break
                if steps >= max_steps:
                    # like the interpretive scheduler: finish the in-flight
                    # writes, then report the step-budget failure
                    while pending:
                        _, _, _, commit, index, value = heapq.heappop(pending)
                        commit(scalars, arrays, index, value)
                    raise SimulationError(
                        f"program did not halt within {max_steps} steps"
                    )
                address = scalars[pc_name]
                offset = address - origin
                if not 0 <= offset < len(program):
                    raise SimulationError(
                        f"PC 0x{address:x} outside the loaded program"
                    )
                stall = stalls[offset]
                if stall:
                    self.cycle += stall
                    self.stall_cycles += stall
                    while pending and pending[0][0] <= self.cycle:
                        _, _, _, commit, index, value = heapq.heappop(pending)
                        commit(scalars, arrays, index, value)
                entry = program[offset]
                execute, cycles, size = entry
                del sink[:]
                execute(scalars, arrays, sink)
                retire = self.cycle + cycles
                # Sink order is action writes then side-effect writes, so the
                # sequence number alone reproduces the ILS commit order.
                for delay, phase, commit, index, value in sink:
                    self._seq += 1
                    heapq.heappush(
                        pending,
                        (retire + delay, self._seq, phase, commit, index,
                         value),
                    )
                self.cycle = retire
                counts[offset] += 1
                scalars[pc_name] = (address + size) & mask(
                    self._widths[pc_name]
                )
                steps += 1
            # drain
            while pending:
                _, _, _, commit, index, value = heapq.heappop(pending)
                commit(scalars, arrays, index, value)
            result = RunResult.from_stats(self.stats, "halted")
        if obs.enabled():
            obs.add("sim.runs")
            obs.add("sim.cycles", self.cycle - cycles_before)
            obs.add("sim.instructions",
                    self.instructions - instructions_before)
        return result
