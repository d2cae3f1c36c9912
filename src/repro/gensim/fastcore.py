"""The generated processing core (paper §3.3.3: "These RTL statements are
translated to C functions ... compiled into the processing core as a
collection of routines, and get called by the scheduler").

GENSIM's generated C gives each operation a compiled routine; operands
arrive as arguments after off-line disassembly.  :class:`FastCore` is the
Python equivalent: every (operation, non-terminal-option-combination) is
compiled once per architecture into a closure tree, and execution binds the
decoded operand values through a small environment.  Unlike the
program-specialized :mod:`repro.gensim.compiled` simulator (the paper's
*future work*), the routines are program-independent — the same executable
serves any program for the architecture, exactly as the paper describes.

State accesses still go through :class:`~repro.gensim.state.State`, so
monitors, watchpoints and bounds checks keep working ("All accesses to
state are automatically routed through the monitors code").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..errors import SimulationError
from ..isdl import ast, rtl
from ..isdl.fingerprint import FingerprintDelta, fingerprint_tree, unit_fingerprint
from .core import (
    INTRINSIC_IMPLS,
    _BINOPS,
    ExecutionResult,
    PendingWrite,
)
from .state import State

#: expression closure: (state, env) -> int; env maps param name -> value
ExprFn = Callable[[State, dict], int]
#: statement closure: (state, env, sink) -> None
StmtFn = Callable[[State, dict, list], None]


class FastCore:
    """Compiled per-operation routines with the ProcessingCore API."""

    def __init__(self, desc: ast.Description,
                 reuse_from: Optional[Tuple["FastCore", FingerprintDelta]] = None):
        self.desc = desc
        # Dispatch cache: (op name, op identity, option choices) -> routine.
        # The identity key keeps the per-execution lookup at dict speed.
        self._routines: Dict[Tuple, "_Routine"] = {}
        # Content cache: (operation unit digest, option choices) -> routine.
        # Filled on compile; consulted on dispatch-cache misses, which is
        # where routines adopted from a parent core are found.
        self._by_digest: Dict[Tuple, "_Routine"] = {}
        #: (routines adopted, routines compiled) when built incrementally.
        self.reuse_counts: Dict[str, int] = {}
        if reuse_from is not None:
            parent, delta = reuse_from
            adopted = 0
            # A routine bakes in the operation's definition (costs,
            # timing, RTL) and its parameters' token/NT definitions;
            # storages are resolved by name through State at run time.
            # So with tokens and NTs identical, any routine whose
            # operation digest still appears in this description is
            # byte-equivalent to what a cold compile would produce.
            if not delta.tokens_changed and not delta.nonterminals_changed:
                live = set(fingerprint_tree(desc).operations.values())
                for key, routine in parent._by_digest.items():
                    if key[0] in live:
                        self._by_digest[key] = routine
                        adopted += 1
            self.reuse_counts = {"reused": adopted, "rebuilt": 0}

    # ------------------------------------------------------------------
    # Public API (mirrors ProcessingCore.execute)
    # ------------------------------------------------------------------

    def execute(self, state: State, selections) -> ExecutionResult:
        result = ExecutionResult(cycles=0)
        bound: List[Tuple] = []
        for op, operands in selections:
            routine = self._routine_for(op, operands)
            env = routine.bind(operands)
            bound.append((routine, env))
            result.cycles = max(result.cycles, routine.cycles)
        for routine, env in bound:
            for fn in routine.action_fns:
                fn(state, env, result.action_writes)
        for routine, env in bound:
            for fn in routine.side_effect_fns:
                fn(state, env, result.side_effect_writes)
        if result.cycles <= 0:
            result.cycles = 1
        return result

    # ------------------------------------------------------------------
    # Routine compilation
    # ------------------------------------------------------------------

    def _routine_for(self, op: ast.Operation, operands) -> "_Routine":
        key = (op.name, id(op), self._option_key(op, operands))
        routine = self._routines.get(key)
        if routine is None:
            digest_key = (unit_fingerprint(op), key[2])
            routine = self._by_digest.get(digest_key)
            if routine is None:
                # Compile-on-miss is the GENSIM "core build"; it happens
                # once per (operation, option-combination) per
                # architecture.
                with obs.span("gensim.corebuild", op=op.name):
                    routine = _Routine(self.desc, op, operands)
                self._by_digest[digest_key] = routine
                obs.add("gensim.routines_compiled")
                if self.reuse_counts:
                    self.reuse_counts["rebuilt"] += 1
            else:
                obs.add("gensim.routines_adopted")
            self._routines[key] = routine
        return routine

    def _option_key(self, op, operands):
        parts = []
        for param in op.params:
            ptype = self.desc.param_type(param)
            if isinstance(ptype, ast.NonTerminal):
                parts.append((param.name, operands[param.name][0]))
        return tuple(parts)


class _Routine:
    """One compiled operation for a fixed non-terminal option choice."""

    def __init__(self, desc: ast.Description, op: ast.Operation, operands):
        self.desc = desc
        self.op = op
        compiler = _Compiler(desc)
        self.cycles = max(op.costs.cycle, 0)
        #: (param, sub-env template builder) for binding decoded operands
        self._binders: List[Tuple[str, Optional[ast.NtOption]]] = []
        env_info: Dict[str, object] = {}
        prologue: List[StmtFn] = []
        delay = op.timing.latency - 1
        for param in op.params:
            ptype = desc.param_type(param)
            if isinstance(ptype, ast.TokenDef):
                self._binders.append((param.name, None))
                env_info[param.name] = "token"
                continue
            label = operands[param.name][0]
            option = ptype.option(label)
            self._binders.append((param.name, option))
            self.cycles += option.costs.cycle
            env_info[param.name] = ("nt", option)
            compiler.compile_nt(
                param.name, option, env_info, prologue,
                option.timing.latency - 1,
            )
        self.cycles = max(self.cycles, 1)
        self.action_fns: List[StmtFn] = list(prologue)
        for stmt in op.action:
            self.action_fns.append(
                compiler.compile_stmt(stmt, env_info, delay)
            )
        self.side_effect_fns: List[StmtFn] = []
        for stmt in op.side_effect:
            self.side_effect_fns.append(
                compiler.compile_stmt(stmt, env_info, delay)
            )
        for param_name, option in self._binders:
            if option is not None and option.side_effect:
                nt_delay = option.timing.latency - 1
                for stmt in option.side_effect:
                    self.side_effect_fns.append(
                        compiler.compile_stmt(
                            stmt, env_info, nt_delay,
                            prefix=f"{param_name}.",
                        )
                    )

    def bind(self, operands) -> dict:
        """Build the execution environment from decoded operands."""
        env: dict = {}
        for param_name, option in self._binders:
            if option is None:
                env[param_name] = operands[param_name]
            else:
                _, sub_operands = operands[param_name]
                for sub_param in option.params:
                    env[f"{param_name}.{sub_param.name}"] = sub_operands[
                        sub_param.name
                    ]
        return env


class _Compiler:
    """Compiles RTL to closures over (state, env)."""

    def __init__(self, desc: ast.Description):
        self.desc = desc

    # -- non-terminal values -------------------------------------------

    def compile_nt(self, param_name, option, env_info, prologue,
                   delay) -> None:
        """Compile an option's action; its $$ lands in env[param_name]."""
        sub_info = {
            f"{param_name}.{p.name}": "token" for p in option.params
        }
        value_fn: Optional[ExprFn] = None
        holders: Dict[str, ExprFn] = {}
        for stmt in option.action:
            if isinstance(stmt, rtl.Assign) and isinstance(
                stmt.dest, rtl.NtLV
            ):
                value_fn = self.compile_expr(
                    stmt.expr, sub_info, prefix=f"{param_name}.",
                    nt_holders=holders,
                )
                holders["$$"] = value_fn
            else:
                prologue.append(
                    self.compile_stmt(
                        stmt, sub_info, delay, prefix=f"{param_name}.",
                        nt_holders=holders,
                    )
                )
        if value_fn is not None:
            slot_name = param_name

            def fill(state, env, sink, _fn=value_fn, _name=slot_name):
                env[_name] = _fn(state, env)

            prologue.append(fill)

    # -- statements -----------------------------------------------------

    def compile_stmt(self, stmt, env_info, delay, prefix="",
                     nt_holders=None) -> StmtFn:
        if isinstance(stmt, rtl.Assign):
            return self._compile_assign(
                stmt, env_info, delay, prefix, nt_holders
            )
        if isinstance(stmt, rtl.If):
            cond = self.compile_expr(stmt.cond, env_info, prefix, nt_holders)
            then = tuple(
                self.compile_stmt(s, env_info, delay, prefix, nt_holders)
                for s in stmt.then
            )
            orelse = tuple(
                self.compile_stmt(s, env_info, delay, prefix, nt_holders)
                for s in stmt.orelse
            )

            def run_if(state, env, sink):
                branch = then if cond(state, env) else orelse
                for fn in branch:
                    fn(state, env, sink)

            return run_if
        raise SimulationError(f"cannot compile statement {stmt!r}")

    def _compile_assign(self, stmt, env_info, delay, prefix,
                        nt_holders) -> StmtFn:
        value_fn = self.compile_expr(stmt.expr, env_info, prefix, nt_holders)
        dest = stmt.dest
        if isinstance(dest, rtl.ParamLV):
            info = env_info.get(dest.name)
            if not (isinstance(info, tuple) and info[0] == "nt"):
                raise SimulationError(
                    f"parameter {dest.name!r} is not a destination"
                )
            option = info[1]
            target = option.storage_target()
            if target is None:
                raise SimulationError(
                    f"option {option.label!r} is not transparent"
                )
            sub_info = {
                f"{dest.name}.{p.name}": "token" for p in option.params
            }
            return self._storage_write(
                target, value_fn, sub_info, delay, prefix=f"{dest.name}.",
                nt_holders=None,
            )
        if isinstance(dest, rtl.StorageLV):
            return self._storage_write(
                dest, value_fn, env_info, delay, prefix, nt_holders
            )
        raise SimulationError(f"cannot compile destination {dest!r}")

    def _storage_write(self, dest, value_fn, env_info, delay, prefix,
                       nt_holders) -> StmtFn:
        storage = dest.storage
        hi, lo = dest.hi, dest.lo
        if dest.index is not None:
            index_fn = self.compile_expr(
                dest.index, env_info, prefix, nt_holders
            )

            def write_indexed(state, env, sink):
                sink.append(
                    PendingWrite(
                        storage, index_fn(state, env), hi, lo,
                        value_fn(state, env), delay,
                    )
                )

            return write_indexed

        def write_scalar(state, env, sink):
            sink.append(
                PendingWrite(
                    storage, None, hi, lo, value_fn(state, env), delay
                )
            )

        return write_scalar

    # -- expressions ------------------------------------------------------

    def compile_expr(self, expr, env_info, prefix="",
                     nt_holders=None) -> ExprFn:
        if isinstance(expr, rtl.IntLit):
            value = expr.value
            return lambda state, env: value
        if isinstance(expr, rtl.ParamRef):
            # Inside an option body the sub-parameters are stored under
            # "param.subparam"; operation-level parameters under their
            # plain names.
            key = prefix + expr.name
            if key not in env_info and expr.name in env_info:
                key = expr.name
            return lambda state, env, _k=key: env[_k]
        if isinstance(expr, rtl.NtValue):
            if nt_holders is None or "$$" not in nt_holders:
                raise SimulationError("'$$' read before assignment")
            inner = nt_holders["$$"]
            return inner
        if isinstance(expr, rtl.StorageRead):
            storage, hi, lo = expr.storage, expr.hi, expr.lo
            if expr.index is None:
                return (
                    lambda state, env, _s=storage, _h=hi, _l=lo:
                    state.read(_s, None, _h, _l)
                )
            index_fn = self.compile_expr(
                expr.index, env_info, prefix, nt_holders
            )
            return (
                lambda state, env, _s=storage, _h=hi, _l=lo, _i=index_fn:
                state.read(_s, _i(state, env), _h, _l)
            )
        if isinstance(expr, rtl.BinOp):
            left = self.compile_expr(expr.left, env_info, prefix, nt_holders)
            right = self.compile_expr(
                expr.right, env_info, prefix, nt_holders
            )
            if expr.op == "&&":
                return lambda state, env: int(
                    bool(left(state, env)) and bool(right(state, env))
                )
            if expr.op == "||":
                return lambda state, env: int(
                    bool(left(state, env)) or bool(right(state, env))
                )
            fn = _BINOPS[expr.op]
            return lambda state, env: fn(left(state, env), right(state, env))
        if isinstance(expr, rtl.UnOp):
            operand = self.compile_expr(
                expr.operand, env_info, prefix, nt_holders
            )
            if expr.op == "~":
                return lambda state, env: ~operand(state, env)
            if expr.op == "-":
                return lambda state, env: -operand(state, env)
            return lambda state, env: int(not operand(state, env))
        if isinstance(expr, rtl.Cond):
            cond = self.compile_expr(expr.cond, env_info, prefix, nt_holders)
            then = self.compile_expr(expr.then, env_info, prefix, nt_holders)
            other = self.compile_expr(
                expr.other, env_info, prefix, nt_holders
            )
            return lambda state, env: (
                then(state, env) if cond(state, env) else other(state, env)
            )
        if isinstance(expr, rtl.Call):
            impl = INTRINSIC_IMPLS[expr.func]
            args = tuple(
                self.compile_expr(a, env_info, prefix, nt_holders)
                for a in expr.args
            )
            return lambda state, env: impl(
                *(fn(state, env) for fn in args)
            )
        raise SimulationError(f"cannot compile expression {expr!r}")
