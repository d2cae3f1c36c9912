"""Block-compiled simulation: basic-block JIT over exec-generated Python.

The :class:`~repro.gensim.compiled.CompiledSimulator` burns operands into
per-instruction closure trees but still pays the generic driver loop per
instruction: a PC load, a bounds check, a sink list, a heap push per write
and a dict store per state change.  This backend goes the rest of the way
(the classic compiled-code simulator structure): straight-line instruction
runs — basic blocks discovered by :mod:`repro.gensim.cfg` — are rendered
into a *single Python source function* which is ``compile``/``exec``-ed
once and dispatched through an entry-PC cache.

Inside a generated block function

* operand values, PC reads, stall counts and cycle costs are constants;
* scalar storages are function locals, addressed storages are hoisted
  list references; all state is written back in one batch per block exit;
* two-phase semantics are kept by computing every write into a temp and
  committing it at its *statically known* commit boundary — stalls and
  cycle costs are static per address, so a write created at instruction
  ``k`` with latency ``L`` commits at the first boundary whose cycle
  offset reaches ``retire(k) + L - 1``.  Only writes that are still in
  flight when the block exits are handed back to the driver (the *latency
  residue*), which re-enters the inherited heap-based machinery.

Blocks that cannot be proven safe — self-modifying code, statically
unresolvable destinations, RTL the emitter does not cover — fall back to
the inherited per-instruction path, as do dispatches with in-flight
cross-block writes, monitored storages, or a nearly exhausted step
budget.  A dispatch counts one execution of its entry offset and a deopt
step one of its own address, so cycle counts, statistics and final state
match XSim bit for bit; ``tests/gensim/test_blocksim.py`` asserts it
differentially and property-tests it across the sample machines.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import obs
from ..encoding.bits import mask, set_bits
from ..errors import ReproError, SimulationError
from ..isdl import ast, rtl
from .cfg import ControlFlowAnalyzer, block_span
from .compiled import CompiledSimulator, _make_commit
from .core import INTRINSIC_IMPLS, _BINOPS, BoundNt
from .monitors import MonitorSet
from .render import render_instruction
from .state import out_of_range
from .stats import RunResult

__all__ = ["BlockSimulator", "BlockStats", "BlockTable", "CompiledBlock"]


class _Unsupported(Exception):
    """RTL the block emitter does not cover — compile falls back."""


#: exec() namespace shared by every generated block: truncating division
#: and the intrinsics, bound to the exact callables the closure compiler
#: uses so results agree bit for bit.
_EXEC_GLOBALS = {
    "_div": _BINOPS["/"],
    "_mod": _BINOPS["%"],
    "_set_bits": set_bits,
    "_oob": out_of_range,
}
_EXEC_GLOBALS.update(
    {f"_in_{name}": fn for name, fn in INTRINSIC_IMPLS.items()}
)


@dataclass
class BlockStats:
    """Dispatch-cache accounting for one simulator."""

    hits: int = 0  # dispatches served by an already-compiled block
    misses: int = 0  # block compilations (cold dispatches)
    deopts: int = 0  # dispatches routed to the per-instruction path
    interp_steps: int = 0  # instructions executed on that path
    residue_writes: int = 0  # latency writes carried past a block exit

    @property
    def dispatches(self) -> int:
        return self.hits + self.misses


@dataclass
class CompiledBlock:
    """One compiled basic block (shared by every simulator instance).

    ``fn is None`` marks a *deopt sentinel*: the entry is cached (so the
    compile is not retried) but every dispatch single-steps instead.
    """

    n: int
    fn: Optional[object]
    #: offsets one dispatch executes, in order
    offsets: Tuple[int, ...] = ()
    #: slot-indexed commit closures for the latency residue
    residue: Tuple = ()
    #: base storages the block touches (monitor-deopt test)
    storages: FrozenSet[str] = frozenset()
    #: the generated Python source (debugging, tests, reports)
    source: str = ""


class BlockTable:
    """Entry-offset → :class:`CompiledBlock` cache for one loaded program.

    Compiled lazily and shared across simulator instances through
    :meth:`repro.cache.ArtifactCache.block_table` — block functions close
    over nothing but burned constants, so they are instance-independent.
    Reloading a program installs a fresh (or differently keyed) table,
    which is the invalidation rule.
    """

    __slots__ = ("blocks",)

    def __init__(self, n_words: int):
        self.blocks: List[Optional[CompiledBlock]] = [None] * n_words


class _Write:
    """A pending write record during block compilation (not at runtime)."""

    __slots__ = ("due", "seq", "guards", "name", "hi", "lo", "is_array",
                 "index", "value")

    def __init__(self, due, seq, guards, name, hi, lo, is_array, index,
                 value):
        self.due = due  # block-relative commit cycle
        self.seq = seq  # static emission order (commit tie-break)
        self.guards = guards  # condition-flag conjunction, outer first
        self.name = name
        self.hi = hi
        self.lo = lo
        self.is_array = is_array
        self.index = index  # source text of the element index (arrays)
        self.value = value  # temp holding the computed value


class _Writeback:
    """Placeholder for the batched write-back (expanded in finalize —
    the full written-scalar set is only known once the block is emitted)."""

    __slots__ = ("indent", "pc_src")

    def __init__(self, indent: int, pc_src: str):
        self.indent = indent
        self.pc_src = pc_src


class _BlockCompiler:
    """Renders one basic block into Python source.

    The generated function has the signature ``_block(scalars, arrays,
    res)`` and returns ``(cycle_delta, stall_delta, instructions)``; any
    write still in flight at the exit is appended to ``res`` as
    ``(due_offset, slot, index, value)`` for the driver to heap-push.
    """

    def __init__(self, sim: "BlockSimulator"):
        self.sim = sim
        self.desc = sim.desc
        self.pc = sim._pc
        self.halt = sim._halt
        self.lines: List[object] = []
        self.indent = 0
        self.guards: Tuple[str, ...] = ()
        self.temp = 0
        self.seq = 0
        self.records: List[_Write] = []
        self.scalar_names: set = set()  # locals to load (reads + writes)
        self.scalar_writes: set = set()  # locals to write back
        self.array_names: set = set()
        self.cur_address = 0  # burned into PC reads
        self._slot_map: Dict[Tuple, int] = {}
        self._residue_fns: List = []

    # ------------------------------------------------------------------
    # Source assembly helpers
    # ------------------------------------------------------------------

    def _line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _temp(self) -> str:
        self.temp += 1
        return f"t{self.temp}"

    # ------------------------------------------------------------------
    # Top level: one block
    # ------------------------------------------------------------------

    def compile(self, offsets: Sequence[int]) -> CompiledBlock:
        """Render *offsets* into one block function."""
        sim = self.sim
        origin = sim._origin
        pc_mask = mask(sim._widths[self.pc])
        storages: set = set()
        outstanding: List[_Write] = []
        cyc = 0
        stl = 0
        halt_dirty = False
        for k, offset in enumerate(offsets):
            address = origin + offset
            _, cycles, size = sim._program[offset]
            flow = sim._flows[offset]
            storages |= flow.storages
            self._comment(offset, address)
            # Top-of-step boundary: commit due writes, then (only if the
            # halt flag may just have changed) test it — the same order
            # the per-instruction driver uses.
            due = [w for w in outstanding if w.due <= cyc]
            if due:
                self._emit_commits(due)
                outstanding = [w for w in outstanding if w.due > cyc]
            touched_halt = any(w.name == self.halt for w in due)
            if k > 0 and (halt_dirty or touched_halt) \
                    and self.halt is not None:
                self._emit_halt_exit(cyc, stl, k, address, outstanding)
            halt_dirty = False
            # Static stall, then the writes that mature during it.  The
            # driver does not re-test halt until the next step boundary,
            # so a halt raised here only marks the flag dirty.
            stall = sim._stalls[offset]
            if stall:
                cyc += stall
                stl += stall
                during = [w for w in outstanding if w.due <= cyc]
                if during:
                    self._emit_commits(during)
                    outstanding = [w for w in outstanding if w.due > cyc]
                    halt_dirty = any(
                        w.name == self.halt for w in during
                    )
            # Compute phase: evaluate everything into temps/records.
            self.cur_address = address
            before = len(self.records)
            self._emit_instruction(sim._prepared[offset],
                                   retire_off=cyc + cycles)
            outstanding.extend(self.records[before:])
            cyc += cycles
        # Final boundary: fall-through PC (terminator writes override it
        # through the commits below), due commits, latency residue.
        last = offsets[-1]
        fall_pc = (origin + last + sim._program[last][2]) & pc_mask
        self._line(f"_pc = {fall_pc}")
        due = [w for w in outstanding if w.due <= cyc]
        if due:
            self._emit_commits(due, pc_inline=True)
        rest = [w for w in outstanding if w.due > cyc]
        self._emit_residue(rest)
        self.lines.append(_Writeback(self.indent, "_pc"))
        self._line(f"return ({cyc}, {stl}, {len(offsets)})")
        source = self._finalize()
        namespace = dict(_EXEC_GLOBALS)
        code = compile(source, f"<block@{origin + offsets[0]:#x}>", "exec")
        exec(code, namespace)
        return CompiledBlock(
            n=len(offsets),
            fn=namespace["_block"],
            offsets=tuple(offsets),
            residue=tuple(self._residue_fns),
            storages=frozenset(storages),
            source=source,
        )

    def _comment(self, offset: int, address: int) -> None:
        try:
            text = render_instruction(self.desc, self.sim._decoded[offset])
        except ReproError:  # pragma: no cover - odd syntax templates
            text = "?"
        self._line(f"# {address:#06x}: {text}")

    def _finalize(self) -> str:
        out = ["def _block(scalars, arrays, res):"]
        pad = "    "
        for name in sorted(self.scalar_names):
            out.append(f"{pad}s_{name} = scalars[{name!r}]")
        for name in sorted(self.array_names):
            out.append(f"{pad}a_{name} = arrays[{name!r}]")
        for item in self.lines:
            if isinstance(item, _Writeback):
                lead = pad * (1 + item.indent)
                for name in sorted(self.scalar_writes):
                    out.append(f"{lead}scalars[{name!r}] = s_{name}")
                out.append(f"{lead}scalars[{self.pc!r}] = {item.pc_src}")
            else:
                out.append(pad + item)
        return "\n".join(out) + "\n"

    # ------------------------------------------------------------------
    # Commit boundaries, exits and residue
    # ------------------------------------------------------------------

    def _emit_commits(self, due: List[_Write],
                      pc_inline: bool = False) -> None:
        for w in sorted(due, key=lambda w: (w.due, w.seq)):
            if w.name == self.pc and not w.is_array:
                if not pc_inline:
                    # a PC write can only commit at the final boundary
                    # (the writer terminates the block); anything else is
                    # an emitter bug — refuse and deopt.
                    raise _Unsupported("PC commit before block end")
                self._guarded(w.guards, self._pc_commit(w))
                continue
            self._guarded(w.guards, self._state_commit(w))

    def _pc_commit(self, w: _Write) -> str:
        if w.hi is None:
            return f"_pc = {w.value} & {mask(self.sim._widths[w.name])}"
        return f"_pc = _set_bits(_pc, {w.hi}, {w.lo}, {w.value})"

    def _state_commit(self, w: _Write) -> str:
        if w.is_array:
            target = f"a_{w.name}[{w.index}]"
            checked = f"a_{w.name}[{self._checked(w.name, w.index)}]"
        else:
            self.scalar_names.add(w.name)
            self.scalar_writes.add(w.name)
            target = checked = f"s_{w.name}"
        if w.hi is None:
            return f"{checked} = {w.value} & {mask(self.sim._widths[w.name])}"
        return f"{target} = _set_bits({checked}, {w.hi}, {w.lo}, {w.value})"

    def _checked(self, name: str, index: str) -> str:
        """*index* as a subscript raising State's out-of-range error."""
        depth = len(self.sim.arrays[name])
        if index.isdigit() and int(index) < depth:
            return index
        bound = index
        if not index.isidentifier():
            index = self._temp()
            bound = f"({index} := {bound})"
        return (f"({index} if 0 <= {bound} < {depth}"
                f" else _oob({name!r}, {index}, {depth}))")

    def _guarded(self, guards: Tuple[str, ...], text: str) -> None:
        if guards:
            self._line(f"if {' and '.join(guards)}:")
            self.indent += 1
            self._line(text)
            self.indent -= 1
        else:
            self._line(text)

    def _emit_halt_exit(self, cyc: int, stl: int, count: int,
                        next_pc: int, outstanding: List[_Write]) -> None:
        self.scalar_names.add(self.halt)
        self._line(f"if s_{self.halt}:")
        self.indent += 1
        self._emit_residue(outstanding)
        self.lines.append(_Writeback(self.indent, str(next_pc)))
        self._line(f"return ({cyc}, {stl}, {count})")
        self.indent -= 1

    def _emit_residue(self, rest: List[_Write]) -> None:
        for w in sorted(rest, key=lambda w: (w.due, w.seq)):
            slot = self._residue_slot(w)
            index = w.index if w.is_array else "None"
            self._guarded(
                w.guards,
                f"res.append(({w.due}, {slot}, {index}, {w.value}))",
            )

    def _residue_slot(self, w: _Write) -> int:
        key = (w.name, w.hi, w.lo, w.is_array)
        slot = self._slot_map.get(key)
        if slot is None:
            slot = len(self._residue_fns)
            self._slot_map[key] = slot
            self._residue_fns.append(_make_commit(
                w.name, self.sim._widths[w.name], w.hi, w.lo, w.is_array
            ))
        return slot

    # ------------------------------------------------------------------
    # Instruction compute phase (mirrors CompiledSimulator's structure)
    # ------------------------------------------------------------------

    def _emit_instruction(self, prepared, retire_off: int) -> None:
        """Emit one instruction over the bindings its load prepared."""
        per_dop = []
        for op, env in prepared.bound:
            delay = op.timing.latency - 1
            cenv = self._emit_env(env, retire_off, prologues=True)
            for stmt in op.action:
                self._emit_stmt(stmt, cenv, retire_off + delay, None)
            per_dop.append((op, env, cenv, delay))
        for op, env, cenv, delay in per_dop:
            for stmt in op.side_effect:
                self._emit_stmt(stmt, cenv, retire_off + delay, None)
            for bound in env.values():
                if isinstance(bound, BoundNt) and bound.option.side_effect:
                    nt_delay = bound.option.timing.latency - 1
                    sub_env = self._emit_env(
                        bound.env, retire_off, prologues=False
                    )
                    for stmt in bound.option.side_effect:
                        self._emit_stmt(
                            stmt, sub_env, retire_off + nt_delay, None
                        )

    def _emit_env(self, env, retire_off: int, prologues: bool):
        compiled: Dict[str, object] = {}
        for name, bound in env.items():
            if isinstance(bound, BoundNt):
                sub = self._emit_env(bound.env, retire_off, prologues)
                if prologues:
                    value_src = self._emit_nt_action(bound, sub, retire_off)
                else:
                    # matches the closure compiler, which discards nested
                    # prologues in side-effect sub-environments: the NT
                    # value slot stays 0
                    value_src = "0"
                compiled[name] = ("nt", value_src, bound, sub)
            else:
                compiled[name] = ("const", bound)
        return compiled

    def _emit_nt_action(self, bound: BoundNt, sub_env,
                        retire_off: int) -> str:
        holder: Dict[str, str] = {}
        due = retire_off + bound.option.timing.latency - 1
        for stmt in bound.option.action:
            if isinstance(stmt, rtl.Assign) and isinstance(
                stmt.dest, rtl.NtLV
            ):
                src = self._emit_expr(stmt.expr, sub_env, holder)
                t = self._temp()
                self._line(f"{t} = {src}")
                holder["$$"] = t
            else:
                self._emit_stmt(stmt, sub_env, due, holder)
        return holder.get("$$", "0")

    def _emit_stmt(self, stmt, env, due: int, nt_value) -> None:
        if isinstance(stmt, rtl.Assign):
            self._emit_assign(stmt, env, due, nt_value)
            return
        if isinstance(stmt, rtl.If):
            c = self._temp()
            self._line(f"{c} = {self._emit_expr(stmt.cond, env, nt_value)}")
            self._line(f"if {c}:")
            saved = self.guards
            self.indent += 1
            self.guards = saved + (c,)
            if stmt.then:
                for s in stmt.then:
                    self._emit_stmt(s, env, due, nt_value)
            else:
                self._line("pass")
            self.indent -= 1
            if stmt.orelse:
                self._line("else:")
                self.indent += 1
                self.guards = saved + (f"not {c}",)
                for s in stmt.orelse:
                    self._emit_stmt(s, env, due, nt_value)
                self.indent -= 1
            self.guards = saved
            return
        raise _Unsupported(f"statement {stmt!r}")

    def _emit_assign(self, stmt, env, due: int, nt_value) -> None:
        value_src = self._emit_expr(stmt.expr, env, nt_value)
        dest = stmt.dest
        if isinstance(dest, rtl.ParamLV):
            binding = env[dest.name]
            bound = binding[2]
            target = bound.option.storage_target()
            if target is None:
                raise _Unsupported(f"opaque NT destination {dest.name!r}")
            index_env = self._emit_env(bound.env, due, prologues=False)
            self._record_write(target, value_src, index_env, due, nt_value)
            return
        if isinstance(dest, rtl.StorageLV):
            self._record_write(dest, value_src, env, due, nt_value)
            return
        raise _Unsupported(f"destination {dest!r}")

    def _record_write(self, dest, value_src: str, env, due: int,
                      nt_value) -> None:
        name, fixed_index, hi, lo = self.sim._resolve_location(
            dest.storage, dest.hi, dest.lo
        )
        is_array = name in self.sim.arrays
        value = self._temp()
        self._line(f"{value} = {value_src}")
        index = None
        if is_array:
            self.array_names.add(name)
            if dest.index is not None:
                index = self._temp()
                src = self._emit_expr(dest.index, env, nt_value)
                self._line(f"{index} = {src}")
            else:
                index = repr(fixed_index)
        elif name != self.pc:
            self.scalar_names.add(name)
            self.scalar_writes.add(name)
        effective_lo = (lo if lo is not None else hi) if hi is not None \
            else None
        self.seq += 1
        self.records.append(_Write(
            due, self.seq, self.guards, name, hi, effective_lo,
            is_array, index, value,
        ))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _emit_expr(self, expr, env, nt_value) -> str:
        if isinstance(expr, rtl.IntLit):
            return repr(expr.value)
        if isinstance(expr, rtl.ParamRef):
            binding = env[expr.name]
            if binding[0] == "const":
                return repr(binding[1])
            return binding[1]  # NT value temp (or "0")
        if isinstance(expr, rtl.NtValue):
            if nt_value is None or "$$" not in nt_value:
                raise _Unsupported("'$$' read before assignment")
            return nt_value["$$"]
        if isinstance(expr, rtl.StorageRead):
            return self._emit_read(expr, env, nt_value)
        if isinstance(expr, rtl.BinOp):
            left = self._emit_expr(expr.left, env, nt_value)
            right = self._emit_expr(expr.right, env, nt_value)
            op = expr.op
            if op == "&&":
                return f"(1 if ({left}) and ({right}) else 0)"
            if op == "||":
                return f"(1 if ({left}) or ({right}) else 0)"
            if op == "/":
                return f"_div({left}, {right})"
            if op == "%":
                return f"_mod({left}, {right})"
            if op in ("==", "!=", "<", "<=", ">", ">="):
                return f"(1 if ({left}) {op} ({right}) else 0)"
            if op in ("+", "-", "*", "&", "|", "^", "<<", ">>"):
                return f"(({left}) {op} ({right}))"
            raise _Unsupported(f"operator {op!r}")
        if isinstance(expr, rtl.UnOp):
            operand = self._emit_expr(expr.operand, env, nt_value)
            if expr.op == "~":
                return f"(~({operand}))"
            if expr.op == "-":
                return f"(-({operand}))"
            return f"(0 if ({operand}) else 1)"
        if isinstance(expr, rtl.Cond):
            cond = self._emit_expr(expr.cond, env, nt_value)
            then = self._emit_expr(expr.then, env, nt_value)
            other = self._emit_expr(expr.other, env, nt_value)
            return f"(({then}) if ({cond}) else ({other}))"
        if isinstance(expr, rtl.Call):
            if expr.func not in INTRINSIC_IMPLS:
                raise _Unsupported(f"intrinsic {expr.func!r}")
            args = ", ".join(
                self._emit_expr(arg, env, nt_value) for arg in expr.args
            )
            return f"_in_{expr.func}({args})"
        raise _Unsupported(f"expression {expr!r}")

    def _emit_read(self, expr, env, nt_value) -> str:
        name, fixed_index, hi, lo = self.sim._resolve_location(
            expr.storage, expr.hi, expr.lo
        )
        is_array = name in self.sim.arrays
        if is_array:
            self.array_names.add(name)
            if expr.index is not None:
                index = self._emit_expr(expr.index, env, nt_value)
            else:
                index = repr(fixed_index)
            base = f"a_{name}[{self._checked(name, index)}]"
        elif name == self.pc:
            # During execution the PC holds the current instruction's
            # address — a compile-time constant here.
            value = self.cur_address
            if hi is None:
                return repr(value)
            effective_lo = lo if lo is not None else hi
            return repr((value >> effective_lo)
                        & mask(hi - effective_lo + 1))
        else:
            self.scalar_names.add(name)
            base = f"s_{name}"
        if hi is None:
            return base
        effective_lo = lo if lo is not None else hi
        m = mask(hi - effective_lo + 1)
        return f"(({base} >> {effective_lo}) & {m})"


class BlockSimulator(CompiledSimulator):
    """Basic-block JIT backend behind the :class:`Simulator` protocol.

    Accepts an optional *cache* (:class:`repro.cache.ArtifactCache`) to
    share compiled block tables across instances by ISDL fingerprint, and
    an optional *monitors* (:class:`MonitorSet`): blocks touching watched
    storages are executed per instruction with changes reported at
    commit-wave granularity (coarser than XSim's per-write hooks, but the
    fast path stays monitor-free).
    """

    def __init__(self, desc: ast.Description, table=None, *,
                 cache=None, monitors: Optional[MonitorSet] = None):
        super().__init__(desc, table=table)
        self.cache = cache
        self.monitors = monitors
        self.block_stats = BlockStats()
        self._cfg = ControlFlowAnalyzer(desc)
        self._flows: List = []
        self._blocks = BlockTable(0)
        #: block-function dispatches per entry offset
        self._dispatches: List[int] = []

    # ------------------------------------------------------------------
    # Loading (invalidates the dispatch cache)
    # ------------------------------------------------------------------

    def load_words(self, words: Sequence[int], origin: int = 0) -> None:
        super().load_words(words, origin)
        self._dispatches = [0] * len(words)
        self._flows = self._cfg.flows_for_program(self._decoded)
        if self.cache is not None:
            self._blocks = self.cache.block_table(
                self.desc, words, origin, lambda: BlockTable(len(words)),
            )
        else:
            self._blocks = BlockTable(len(words))

    def reset(self) -> None:
        super().reset()
        self._dispatches = [0] * len(self._dispatches)

    def _address_counts(self) -> List[int]:
        counts = list(self._counts)
        blocks = self._blocks.blocks
        for entry, n in enumerate(self._dispatches):
            if n:
                for offset in blocks[entry].offsets:
                    counts[offset] += n
        return counts

    # ------------------------------------------------------------------
    # Block compilation
    # ------------------------------------------------------------------

    def _compile_block(self, start: int) -> CompiledBlock:
        span = block_span(self._flows, start)
        deopt = CompiledBlock(n=1, fn=None)
        if not span:
            return deopt
        for offset in span:
            flow = self._flows[offset]
            if flow.writes_imem or flow.unresolved:
                return deopt
        try:
            return _BlockCompiler(self).compile(span)
        except (_Unsupported, SimulationError, KeyError):
            return deopt

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(self, max_steps: int = 5_000_000) -> RunResult:
        instructions_before = self.instructions
        cycles_before = self.cycle
        bs = self.block_stats
        before = (bs.hits, bs.misses, bs.deopts, bs.residue_writes)
        with obs.span("sim.run", backend="block", desc=self.desc.name):
            result = self._run_loop(max_steps)
        if obs.enabled():
            obs.add("sim.runs")
            obs.add("sim.cycles", self.cycle - cycles_before)
            obs.add("sim.instructions",
                    self.instructions - instructions_before)
            obs.add("blocksim.block_hits", bs.hits - before[0])
            obs.add("blocksim.block_misses", bs.misses - before[1])
            obs.add("blocksim.deopts", bs.deopts - before[2])
            obs.add("blocksim.residue_writes",
                    bs.residue_writes - before[3])
        return result

    def _run_loop(self, max_steps: int) -> RunResult:
        scalars, arrays = self.scalars, self.arrays
        pending = self._pending
        origin = self._origin
        program = self._program
        pc_name = self._pc
        halt = self._halt
        pc_mask = mask(self._widths[pc_name])
        blocks = self._blocks.blocks
        bstats = self.block_stats
        counts, dispatches = self._counts, self._dispatches
        watched = self._watched_storages()
        snapshot = self._monitor_seed(watched) if watched else None
        steps = 0
        res: List = []
        n_words = len(program)
        while True:
            while pending and pending[0][0] <= self.cycle:
                _, _, _, commit, index, value = heapq.heappop(pending)
                commit(scalars, arrays, index, value)
            if snapshot is not None:
                self._monitor_sync(snapshot)
            if halt is not None and scalars.get(halt, 0):
                break
            if steps >= max_steps:
                raise SimulationError(
                    f"program did not halt within {max_steps} steps"
                )
            address = scalars[pc_name]
            offset = address - origin
            if not 0 <= offset < n_words:
                raise SimulationError(
                    f"PC 0x{address:x} outside the loaded program"
                )
            block = blocks[offset]
            if block is None:
                block = self._compile_block(offset)
                blocks[offset] = block
                bstats.misses += 1
            else:
                bstats.hits += 1
            if (
                block.fn is None
                or pending
                or steps + block.n > max_steps
                or (watched and not watched.isdisjoint(block.storages))
            ):
                bstats.deopts += 1
                bstats.interp_steps += 1
                self._interp_step(offset, address, pc_mask)
                steps += 1
                continue
            entry = self.cycle
            cyc_off, stall_off, count = block.fn(scalars, arrays, res)
            self.cycle = entry + cyc_off
            self.stall_cycles += stall_off
            dispatches[offset] += 1
            if count != block.n:
                # a halt left the block early: uncount what it skipped
                for skipped in block.offsets[count:]:
                    counts[skipped] -= 1
            steps += count
            if res:
                commits = block.residue
                for due_off, slot, index, value in res:
                    self._seq += 1
                    heapq.heappush(pending, (
                        entry + due_off, self._seq, 1,
                        commits[slot], index, value,
                    ))
                bstats.residue_writes += len(res)
                del res[:]
        while pending:
            _, _, _, commit, index, value = heapq.heappop(pending)
            commit(scalars, arrays, index, value)
        if snapshot is not None:
            self._monitor_sync(snapshot)
        return RunResult.from_stats(self.stats, "halted")

    def _interp_step(self, offset: int, address: int,
                     pc_mask: int) -> None:
        """One per-instruction step (the inherited driver's body)."""
        scalars, arrays = self.scalars, self.arrays
        pending = self._pending
        stall = self._stalls[offset]
        if stall:
            self.cycle += stall
            self.stall_cycles += stall
            while pending and pending[0][0] <= self.cycle:
                _, _, _, commit, index, value = heapq.heappop(pending)
                commit(scalars, arrays, index, value)
        execute, cycles, size = self._program[offset]
        sink: List = []
        execute(scalars, arrays, sink)
        retire = self.cycle + cycles
        for delay, phase, commit, index, value in sink:
            self._seq += 1
            heapq.heappush(
                pending,
                (retire + delay, self._seq, phase, commit, index, value),
            )
        self.cycle = retire
        self._counts[offset] += 1
        scalars[self._pc] = (address + size) & pc_mask

    # ------------------------------------------------------------------
    # Monitor support (coarse: per commit wave, on the deopt path)
    # ------------------------------------------------------------------

    def _watched_storages(self) -> FrozenSet[str]:
        if self.monitors is None:
            return frozenset()
        return frozenset(self.monitors.watched_storages())

    def _monitor_seed(self, watched) -> Dict[str, object]:
        snapshot: Dict[str, object] = {}
        for name in watched:
            if name in self.arrays:
                snapshot[name] = list(self.arrays[name])
            elif name in self.scalars:
                snapshot[name] = self.scalars[name]
        return snapshot

    def _monitor_sync(self, snapshot: Dict[str, object]) -> None:
        notify = self.monitors.notify
        for name, old in snapshot.items():
            if name in self.arrays:
                current = self.arrays[name]
                for i, new in enumerate(current):
                    if old[i] != new:
                        notify(name, i, old[i], new)
                        old[i] = new
            else:
                new = self.scalars[name]
                if new != old:
                    notify(name, None, old, new)
                    snapshot[name] = new
