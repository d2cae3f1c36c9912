"""Control-flow facts of decoded instructions, for the dataflow analysis.

:mod:`repro.analyze.dataflow` builds each program's basic-block graph
from these facts, so it needs to know where control flow can leave the
straight line.  ISDL has no explicit branch class — any operation may
assign the storage designated ``PROGRAM_COUNTER`` — so the analysis below
walks the RTL destinations of each decoded instruction (like
:mod:`repro.gensim.hazards` does for stalls) and classifies it:

* does any path write the program counter (a *terminator*)?
* is every such write conditional (an ``if``-guarded branch)?
* does it write instruction memory (self-modifying code)?
* what is its worst write latency and its size in words?

:func:`block_span` discovers a block from its entry offset: it extends
to the first terminator or the last program word, stepping by each
instruction's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isdl import ast, rtl
from .disassembler import DecodedInstruction

__all__ = [
    "InstructionFlow",
    "ControlFlowAnalyzer",
    "block_span",
]

#: Safety valve for pathological straight-line programs: a block longer
#: than this is split (the tail becomes the next block's entry).
MAX_BLOCK_LEN = 64


def _freeze(operand) -> Tuple:
    """Hashable form of a decoded operand tree."""
    if isinstance(operand, tuple) and len(operand) == 2 and isinstance(
        operand[1], dict
    ):
        label, sub = operand
        return (label, tuple(sorted(
            (name, _freeze(child)) for name, child in sub.items()
        )))
    return operand


@dataclass(frozen=True)
class InstructionFlow:
    """Static control-flow summary of one decoded instruction."""

    #: some path may assign the program counter (block terminator)
    writes_pc: bool
    #: every PC write sits under at least one ``if`` (conditional branch)
    conditional_pc: bool
    #: writes instruction memory — self-modifying code
    writes_imem: bool
    #: worst-case write latency of the instruction's operations
    max_latency: int
    #: instruction size in words (PC advance)
    size: int
    #: a destination the analysis could not resolve statically (a write
    #: through a non-terminal parameter whose bound option is not a plain
    #: storage location); it may reach the program counter, so the
    #: instruction ends its block
    unresolved: bool = False


class ControlFlowAnalyzer:
    """Derives :class:`InstructionFlow` facts from operation RTL."""

    def __init__(self, desc: ast.Description):
        self.desc = desc
        self._pc = self._alias_base(desc.program_counter().name)
        self._imem = desc.instruction_memory().name
        self._cache: Dict[Tuple, InstructionFlow] = {}

    # ------------------------------------------------------------------
    # Per-instruction analysis
    # ------------------------------------------------------------------

    def flow(self, decoded: DecodedInstruction) -> InstructionFlow:
        key = tuple(
            (op.field, op.op_name,
             tuple(sorted((n, _freeze(v)) for n, v in op.operands.items())))
            for op in decoded.operations
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        scan = _FlowScan()
        size = 1
        latency = 1
        for dop in decoded.operations:
            op = self.desc.operation(dop.field, dop.op_name)
            size = max(size, op.costs.size)
            latency = max(latency, op.timing.latency)
            bindings = self._nt_bindings(op.params, dop.operands)
            self._scan_stmts(list(op.action) + list(op.side_effect),
                             bindings, scan, guarded=False)
            for option, sub in bindings.values():
                latency = max(latency, option.timing.latency)
                self._scan_stmts(
                    list(option.action) + list(option.side_effect),
                    sub, scan, guarded=False,
                )
        flow = InstructionFlow(
            writes_pc=scan.writes_pc,
            conditional_pc=scan.writes_pc and scan.all_pc_guarded,
            writes_imem=scan.writes_imem,
            max_latency=latency,
            size=size,
            unresolved=scan.unresolved,
        )
        self._cache[key] = flow
        return flow

    def flows_for_program(
        self, program: Sequence[Optional[DecodedInstruction]]
    ) -> List[Optional[InstructionFlow]]:
        """Per-address flow facts (None for unoccupied words)."""
        return [self.flow(d) if d is not None else None for d in program]

    # ------------------------------------------------------------------
    # RTL walking
    # ------------------------------------------------------------------

    def _nt_bindings(self, params, operands):
        """param name -> (bound option, its own bindings) for NT params."""
        bindings = {}
        for param in params:
            ptype = self.desc.param_type(param)
            if isinstance(ptype, ast.NonTerminal):
                label, sub = operands[param.name]
                option = ptype.option(label)
                bindings[param.name] = (
                    option, self._nt_bindings(option.params, sub)
                )
        return bindings

    def _scan_stmts(self, stmts, bindings, scan, guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, rtl.Assign):
                self._scan_dest(stmt.dest, bindings, scan, guarded)
            elif isinstance(stmt, rtl.If):
                self._scan_stmts(stmt.then, bindings, scan, guarded=True)
                self._scan_stmts(stmt.orelse, bindings, scan, guarded=True)

    def _scan_dest(self, dest, bindings, scan, guarded: bool) -> None:
        if isinstance(dest, rtl.NtLV):
            return  # ``$$`` — the option's value, not a storage
        if isinstance(dest, rtl.ParamLV):
            binding = bindings.get(dest.name)
            target = binding[0].storage_target() if binding else None
            if target is None:
                scan.unresolved = True
                return
            dest = target
        base = self._alias_base(dest.storage)
        if base == self._pc:
            scan.writes_pc = True
            if not guarded:
                scan.all_pc_guarded = False
        if base == self._imem:
            scan.writes_imem = True

    def _alias_base(self, name: str) -> str:
        alias = self.desc.aliases.get(name)
        return alias.storage if alias is not None else name


class _FlowScan:
    """Mutable accumulator for one instruction's scan."""

    __slots__ = ("writes_pc", "all_pc_guarded", "writes_imem", "unresolved")

    def __init__(self):
        self.writes_pc = False
        self.all_pc_guarded = True
        self.writes_imem = False
        self.unresolved = False


# ---------------------------------------------------------------------------
# Block discovery
# ---------------------------------------------------------------------------


def block_span(
    flows: Sequence[Optional[InstructionFlow]],
    start: int,
    max_len: int = MAX_BLOCK_LEN,
) -> Tuple[int, ...]:
    """Word offsets of the dynamic basic block entered at *start*.

    The block runs from *start* through the first terminator (inclusive),
    the last program word, or the length cap, stepping by each
    instruction's size.  Empty when *start* is out of range or lands on an
    unoccupied word.
    """
    offsets: List[int] = []
    offset = start
    n = len(flows)
    while 0 <= offset < n and len(offsets) < max_len:
        flow = flows[offset]
        if flow is None:
            break
        offsets.append(offset)
        if flow.writes_pc or flow.unresolved:
            break
        offset += flow.size
    return tuple(offsets)

