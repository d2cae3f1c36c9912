"""The XSIM processing core (paper Fig. 2, part 6; §3.3.3).

Each operation and non-terminal option carries an RTL action and side-effect
block.  GENSIM translates those into routines; this module is the routine
library.  What GENSIM's off-line disassembly makes static is resolved once
per loaded instruction — its operands bound (:func:`bind_operands`) and its
cycle cost summed (:func:`instruction_cycles`) — so an execution only
evaluates RTL.  The book-keeping guarantees of the paper are implemented
here:

* **read-before-write** — the cycle is split into an evaluation phase, in
  which every RTL statement reads the *old* state and computes its result
  into temporary storage (a pending-write list), and a write-back phase that
  commits the temporaries;
* **side effects after actions** — the evaluation phase is itself split into
  an action-evaluation and a side-effect-evaluation phase, so side-effect
  writes land after action writes within the same cycle;
* **latency** — a write with latency *L* is withheld from the state for
  ``L - 1`` further cycles (the scheduler owns the delay queue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .. import fp
from ..encoding.bits import mask, sign_extend
from ..errors import SimulationError
from ..isdl import ast, rtl
from .state import State

if TYPE_CHECKING:
    from .scheduler import PreparedInstruction

# ---------------------------------------------------------------------------
# Intrinsic implementations
# ---------------------------------------------------------------------------


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("division by zero in RTL evaluation")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_mod(a: int, b: int) -> int:
    return a - _trunc_div(a, b) * b


INTRINSIC_IMPLS: Dict[str, Callable[..., int]] = {
    "carry": lambda a, b, w: ((a & mask(w)) + (b & mask(w))) >> w & 1,
    "carryc": lambda a, b, c, w: ((a & mask(w)) + (b & mask(w)) + (c & 1))
    >> w
    & 1,
    "borrow": lambda a, b, w: 1 if (a & mask(w)) < (b & mask(w)) else 0,
    "overflow": lambda a, b, w: int(
        not -(1 << (w - 1))
        <= sign_extend(a, w) + sign_extend(b, w)
        < (1 << (w - 1))
    ),
    "sext": lambda x, w: sign_extend(x, w),
    "zext": lambda x, w: x & mask(w),
    "bit": lambda x, i: (x >> i) & 1,
    "slice": lambda x, hi, lo: (x >> lo) & mask(hi - lo + 1),
    "abs": lambda x: abs(x),
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
    "fadd": fp.fadd,
    "fsub": fp.fsub,
    "fmul": fp.fmul,
    "fdiv": fp.fdiv,
    "fneg": fp.fneg,
    "fabs": fp.fabs_,
    "fcmp": fp.fcmp,
    "itof": fp.itof,
    "ftoi": fp.ftoi,
}

_BINOPS: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _trunc_div,
    "%": _trunc_mod,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


# ---------------------------------------------------------------------------
# Pending writes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PendingWrite:
    """A write computed in the evaluation phase, not yet committed.

    ``delay`` counts cycles until commit: 0 = end of the current cycle
    (latency 1), 1 = end of the next cycle (latency 2), and so on.
    """

    storage: str
    index: Optional[int]
    hi: Optional[int]
    lo: Optional[int]
    value: int
    delay: int = 0


@dataclass
class ExecutionResult:
    """Everything one instruction execution produced."""

    action_writes: List[PendingWrite] = field(default_factory=list)
    side_effect_writes: List[PendingWrite] = field(default_factory=list)
    cycles: int = 1  # cycle cost of the instruction (max over its operations)


# ---------------------------------------------------------------------------
# Bound operands
# ---------------------------------------------------------------------------


class BoundNt:
    """A non-terminal operand, bound once when its instruction is loaded.

    Holds the matched option, the sub-environment of its parameters, and
    the value its action computed for ``$$``.  The value is per execution:
    each execution runs the option's action, which rewrites it before
    anything reads it.
    """

    __slots__ = ("nt", "option", "env", "value")

    def __init__(self, nt: ast.NonTerminal, option: ast.NtOption, env):
        self.nt = nt
        self.option = option
        self.env = env
        self.value = 0


def bind_operands(desc: ast.Description, params,
                  operands) -> Dict[str, object]:
    """Bind decoded operands to the parameters they fill.

    A token operand binds to its value; a non-terminal operand binds to a
    :class:`BoundNt` over its matched option, whose own parameters are
    bound recursively.  Every simulator backend and the hazard analyzer
    bind through here.
    """
    env: Dict[str, object] = {}
    for param in params:
        ptype = desc.param_type(param)
        operand = operands[param.name]
        if isinstance(ptype, ast.TokenDef):
            env[param.name] = operand
        else:
            label, sub_operands = operand
            option = ptype.option(label)
            env[param.name] = BoundNt(
                ptype, option,
                bind_operands(desc, option.params, sub_operands),
            )
    return env


def instruction_cycles(bound) -> int:
    """Cycle cost of one instruction from its ``(operation, env)`` pairs.

    Each operation costs its own cycles plus those of the options bound
    to its parameters; the instruction costs the largest of these, and
    at least one cycle.
    """
    cycles = 1
    for op, env in bound:
        cost = op.costs.cycle
        for operand in env.values():
            if isinstance(operand, BoundNt):
                cost += operand.option.costs.cycle
        cycles = max(cycles, cost)
    return cycles


class ProcessingCore:
    """Executes prepared instructions against a :class:`State`."""

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(
        self, state: State, prepared: "PreparedInstruction"
    ) -> ExecutionResult:
        """Execute one instruction (one operation per field).

        *prepared* carries the operands bound and the cycle cost summed
        once at load time
        (:func:`~repro.gensim.scheduler.prepare_instruction`), so only the
        RTL is evaluated here.  Each bound option's action recomputes its
        ``$$`` before anything of this execution reads it.
        """
        result = ExecutionResult(cycles=prepared.cycles)
        # Action-evaluation phase: every read sees the pre-cycle state
        # because writes only accumulate in the pending lists.  Each
        # operation's bound options run their actions first.
        for op, env in prepared.bound:
            self._run_nt_actions(state, env, result.action_writes)
            delay = op.timing.latency - 1
            self._run_block(state, op.action, env, result.action_writes, delay)
        # Side-effect-evaluation phase (still the same cycle).
        for op, env in prepared.bound:
            delay = op.timing.latency - 1
            self._run_block(
                state, op.side_effect, env, result.side_effect_writes, delay
            )
            for bound in env.values():
                if isinstance(bound, BoundNt) and bound.option.side_effect:
                    nt_delay = bound.option.timing.latency - 1
                    self._run_block(
                        state,
                        bound.option.side_effect,
                        bound.env,
                        result.side_effect_writes,
                        nt_delay,
                    )
        return result

    def _run_nt_actions(self, state, env, sink: List[PendingWrite]) -> None:
        """Run the action of every option bound in *env*, nested first.

        Each action runs exactly once per execution, whether or not the
        operation reads the operand, so an option with a state-changing
        action (e.g. pre-increment addressing) mutates state exactly
        once.  Its ``$$`` becomes the operand's value and its writes
        land in *sink* ahead of the operation's own.
        """
        for bound in env.values():
            if isinstance(bound, BoundNt):
                self._run_nt_actions(state, bound.env, sink)
                holder: Dict[str, int] = {}
                self._run_block(
                    state,
                    bound.option.action,
                    bound.env,
                    sink,
                    bound.option.timing.latency - 1,
                    nt_value=holder,
                )
                bound.value = holder.get("$$", 0)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def _run_block(
        self, state, stmts, env, sink: List[PendingWrite], delay: int,
        nt_value: Optional[Dict[str, int]] = None,
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, rtl.Assign):
                value = self._eval(state, stmt.expr, env, nt_value)
                self._assign(state, stmt.dest, value, env, sink, delay,
                             nt_value)
            elif isinstance(stmt, rtl.If):
                cond = self._eval(state, stmt.cond, env, nt_value)
                branch = stmt.then if cond else stmt.orelse
                self._run_block(state, branch, env, sink, delay, nt_value)
            else:
                raise SimulationError(f"unknown RTL statement {stmt!r}")

    def _assign(self, state, dest, value, env, sink, delay, nt_value) -> None:
        if isinstance(dest, rtl.NtLV):
            if nt_value is None:
                raise SimulationError("'$$' assigned outside a non-terminal")
            nt_value["$$"] = value
            return
        if isinstance(dest, rtl.ParamLV):
            bound = env[dest.name]
            if not isinstance(bound, BoundNt):
                raise SimulationError(
                    f"parameter {dest.name!r} is not a non-terminal"
                    " destination"
                )
            target = bound.option.storage_target()
            if target is None:
                raise SimulationError(
                    f"option {bound.option.label!r} of {bound.nt.name!r}"
                    " cannot be a destination"
                )
            index = None
            if target.index is not None:
                index = self._eval(state, target.index, bound.env, None)
            sink.append(
                PendingWrite(
                    target.storage, index, target.hi, target.lo, value, delay
                )
            )
            return
        if isinstance(dest, rtl.StorageLV):
            index = None
            if dest.index is not None:
                index = self._eval(state, dest.index, env, nt_value)
            sink.append(
                PendingWrite(dest.storage, index, dest.hi, dest.lo, value, delay)
            )
            return
        raise SimulationError(f"invalid assignment destination {dest!r}")

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def _eval(self, state, expr, env, nt_value) -> int:
        if isinstance(expr, rtl.IntLit):
            return expr.value
        if isinstance(expr, rtl.ParamRef):
            bound = env[expr.name]
            return bound.value if isinstance(bound, BoundNt) else bound
        if isinstance(expr, rtl.NtValue):
            if nt_value is None or "$$" not in nt_value:
                raise SimulationError("'$$' read before it was assigned")
            return nt_value["$$"]
        if isinstance(expr, rtl.StorageRead):
            index = None
            if expr.index is not None:
                index = self._eval(state, expr.index, env, nt_value)
            return state.read(expr.storage, index, expr.hi, expr.lo)
        if isinstance(expr, rtl.BinOp):
            left = self._eval(state, expr.left, env, nt_value)
            if expr.op == "&&" and not left:
                return 0
            if expr.op == "||" and left:
                return 1
            right = self._eval(state, expr.right, env, nt_value)
            try:
                return _BINOPS[expr.op](left, right)
            except KeyError:
                raise SimulationError(
                    f"unknown operator {expr.op!r}"
                ) from None
        if isinstance(expr, rtl.UnOp):
            operand = self._eval(state, expr.operand, env, nt_value)
            if expr.op == "~":
                return ~operand
            if expr.op == "-":
                return -operand
            if expr.op == "!":
                return int(not operand)
            raise SimulationError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, rtl.Cond):
            cond = self._eval(state, expr.cond, env, nt_value)
            chosen = expr.then if cond else expr.other
            return self._eval(state, chosen, env, nt_value)
        if isinstance(expr, rtl.Call):
            impl = INTRINSIC_IMPLS.get(expr.func)
            if impl is None:
                raise SimulationError(f"unknown intrinsic {expr.func!r}")
            args = [
                self._eval(state, arg, env, nt_value)
                for arg in expr.args
            ]
            return impl(*args)
        raise SimulationError(f"unknown RTL expression {expr!r}")

