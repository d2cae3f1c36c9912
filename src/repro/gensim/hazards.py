"""Static stall computation (paper §3.3.3, last paragraph).

ISDL has no explicit pipeline model, so neither does the simulator.  Stall
cycles are computed *from the static instruction stream* and added to the
normal cycle count as needed:

* **data hazards** — if an instruction at address ``a`` writes a storage
  location with latency ``L > 1`` and the ``k``-th following instruction in
  the static stream (``k < L``) reads that location, the consumer stalls
  ``L - k`` cycles, capped by the producer operation's ``stall`` cost (the
  "number of additional cycles that may be necessary during a pipeline
  stall").
* **structural hazards** — if an operation occupies its functional unit for
  ``usage U > 1`` cycles, a following instruction within ``k < U`` that uses
  the same field stalls ``U - k`` cycles.  Operations with an empty action
  (explicit NOPs) do not occupy their unit.

Because disassembly is off-line, the analyzer knows each instruction's bound
operands: register indices that are static functions of token parameters
resolve to exact elements (``RF[3]``), and only genuinely dynamic addresses
(e.g. ``DM[RF[a]]``) fall back to whole-storage conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..isdl import ast, rtl
from .core import INTRINSIC_IMPLS, _BINOPS, BoundNt
from .scheduler import PreparedInstruction

#: A static access: (storage, element-index or None for unknown/whole).
Access = Tuple[str, Optional[int]]


@dataclass(frozen=True)
class InstructionProfile:
    """Static read/write/usage summary of one decoded instruction."""

    reads: FrozenSet[Access]
    # (access, latency, stall_cap) triples
    writes: Tuple[Tuple[Access, int, int], ...]
    # (field, usage) for operations that occupy their unit
    unit_usage: Tuple[Tuple[str, int], ...]


def _conflicts(read: Access, write: Access) -> bool:
    if read[0] != write[0]:
        return False
    if read[1] is None or write[1] is None:
        return True
    return read[1] == write[1]


class HazardAnalyzer:
    """Computes per-address stall counts for a loaded program."""

    def __init__(self, desc: ast.Description):
        self.desc = desc
        self._profile_cache: Dict[int, InstructionProfile] = {}

    # ------------------------------------------------------------------
    # Per-instruction profiles
    # ------------------------------------------------------------------

    def profile(self, prepared: PreparedInstruction) -> InstructionProfile:
        """The static summary of one instruction, scanned over the
        bindings of its load-time record *prepared*.

        Memoized by instruction word, which decodes one way per
        description.  Operations left out of the record (empty nops)
        read, write and occupy nothing.
        """
        word = prepared.decoded.word
        cached = self._profile_cache.get(word)
        if cached is not None:
            return cached
        reads: set = set()
        writes: List[Tuple[Access, int, int]] = []
        usage: List[Tuple[str, int]] = []
        for field_name, (op, env) in zip(prepared.fields, prepared.bound):
            # a bound option is not an int, so indexes it feeds are dynamic
            self._scan_blocks(
                list(op.action) + list(op.side_effect),
                env, reads, writes,
                op.timing.latency, op.costs.stall,
            )
            for operand in env.values():
                if isinstance(operand, BoundNt):
                    option = operand.option
                    self._scan_blocks(
                        list(option.action) + list(option.side_effect),
                        operand.env, reads, writes,
                        option.timing.latency, op.costs.stall,
                    )
            if op.action:
                usage.append((field_name, op.timing.usage))
        profile = InstructionProfile(
            frozenset(reads), tuple(writes), tuple(usage)
        )
        self._profile_cache[word] = profile
        return profile

    def _scan_blocks(self, stmts, env, reads, writes, latency, cap) -> None:
        for stmt in rtl.walk_stmts(stmts):
            if isinstance(stmt, rtl.Assign):
                self._scan_reads(stmt.expr, env, reads)
                dest = stmt.dest
                if isinstance(dest, rtl.StorageLV):
                    if dest.index is not None:
                        self._scan_reads(dest.index, env, reads)
                    writes.append(
                        (self._access(dest.storage, dest.index, env),
                         latency, cap)
                    )
                elif isinstance(dest, rtl.ParamLV):
                    # A transparent NT destination: conservatively a write
                    # to each option's target storage.
                    self._scan_paramlv(dest, env, writes, latency, cap)
            elif isinstance(stmt, rtl.If):
                self._scan_reads(stmt.cond, env, reads)

    def _scan_paramlv(self, dest, env, writes, latency, cap) -> None:
        # Without the param->NT map in env we cannot resolve the option;
        # treat as dynamic writes to every storage any option targets.
        for nt in self.desc.nonterminals.values():
            for option in nt.options:
                target = option.storage_target()
                if target is not None:
                    writes.append(
                        ((self._alias_base(target.storage), None),
                         latency, cap)
                    )

    def _scan_reads(self, expr, env, reads) -> None:
        for node in rtl.walk_exprs(expr):
            if isinstance(node, rtl.StorageRead):
                reads.add(self._access(node.storage, node.index, env))
                if node.index is not None:
                    self._scan_reads(node.index, env, reads)

    def _alias_base(self, name: str) -> str:
        alias = self.desc.aliases.get(name)
        return alias.storage if alias is not None else name

    def _access(self, name: str, index, env) -> Access:
        alias = self.desc.aliases.get(name)
        if alias is not None:
            return (alias.storage, alias.index)
        if index is None:
            return (name, None)
        return (name, self._static_eval(index, env))

    def _static_eval(self, expr, env) -> Optional[int]:
        """Evaluate an index expression if it is static for this binding."""
        if isinstance(expr, rtl.IntLit):
            return expr.value
        if isinstance(expr, rtl.ParamRef):
            value = env.get(expr.name)
            return value if isinstance(value, int) else None
        if isinstance(expr, rtl.BinOp):
            left = self._static_eval(expr.left, env)
            right = self._static_eval(expr.right, env)
            if left is None or right is None:
                return None
            try:
                return _BINOPS[expr.op](left, right)
            except Exception:
                return None
        if isinstance(expr, rtl.UnOp):
            operand = self._static_eval(expr.operand, env)
            if operand is None:
                return None
            if expr.op == "-":
                return -operand
            if expr.op == "~":
                return ~operand
            return int(not operand)
        if isinstance(expr, rtl.Call):
            args = [self._static_eval(a, env) for a in expr.args]
            if any(a is None for a in args):
                return None
            impl = INTRINSIC_IMPLS.get(expr.func)
            if impl is None:
                return None
            try:
                return impl(*args)
            except Exception:
                return None
        return None  # storage reads, $$, conditionals: dynamic

    # ------------------------------------------------------------------
    # Program-level stall computation
    # ------------------------------------------------------------------

    def stalls_for_program(
        self, program: Sequence[PreparedInstruction]
    ) -> List[int]:
        """Per-address stall cycles for a loaded instruction stream.

        ``program[i]`` is the load-time record of the instruction at
        offset ``i`` of the program.  The returned list gives the stall
        cycles charged when the instruction at each address executes.
        """
        profiles = [self.profile(prepared) for prepared in program]
        max_window = 1
        for profile in profiles:
            for _, latency, _ in profile.writes:
                max_window = max(max_window, latency)
            for _, usage in profile.unit_usage:
                max_window = max(max_window, usage)
        stalls = [0] * len(program)
        for i, consumer in enumerate(profiles):
            best = 0
            consumer_fields = {f for f, _ in consumer.unit_usage}
            for k in range(1, max_window):
                j = i - k
                if j < 0:
                    break
                producer = profiles[j]
                # Data hazards.
                for access, latency, cap in producer.writes:
                    if latency <= k:
                        continue
                    if any(
                        _conflicts(read, access) for read in consumer.reads
                    ):
                        best = max(best, min(latency - k, cap))
                # Structural hazards.
                for field_name, usage in producer.unit_usage:
                    if usage > k and field_name in consumer_fields:
                        best = max(best, usage - k)
            stalls[i] = best
        return stalls
