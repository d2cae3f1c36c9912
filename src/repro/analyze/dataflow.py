"""Worklist dataflow over decoded programs: facts and lints.

The per-construct passes in :mod:`repro.analyze.passes` look at one
operation (or one pair) at a time.  This module adds whole-program
reasoning over the basic-block CFG that :mod:`repro.gensim.cfg`
discovers: a generic worklist fixpoint engine (:func:`fixpoint`) plus
four concrete lattices —

* **PC-target resolution** — every program-counter write of a decoded
  instruction is constant-folded (operands and the instruction's own
  address are compile-time constants) into an explicit successor set;
* **constant propagation** — scalar storages carrying statically known
  values across block boundaries (join = agree-or-unknown);
* **reaching writes** — which ``(storage, writer offset)`` pairs can
  reach each block entry (join = union, forward);
* **liveness** — which storages a later *execution* may still read
  (join = union, backward; final-state observability is deliberately
  out of scope — the lattice answers "can this value change what the
  program does next", which is the question dead-write elision asks).

The facts feed the ``ISDL6xx`` diagnostics of :func:`pass_dataflow`
(registered in :data:`repro.analyze.passes.ALL_PASSES`) — unreachable
blocks, provably never-halting programs, always-false guards, dead
conditional writes, and storages written-but-never-read across every
supplied workload program.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..encoding.bits import mask
from ..isdl import ast, rtl

__all__ = [
    "fixpoint",
    "InstrFacts",
    "BlockFacts",
    "ProgramFacts",
    "ArchFacts",
    "program_facts",
    "arch_facts",
]


# ---------------------------------------------------------------------------
# The generic worklist engine
# ---------------------------------------------------------------------------


def fixpoint(
    nodes: Sequence,
    edges: Mapping,
    transfer: Callable,
    join: Callable,
    init: Callable,
    *,
    direction: str = "forward",
) -> Dict:
    """Solve a monotone dataflow problem to its least fixpoint.

    *nodes* is the node set, *edges* maps each node to its (forward)
    successors, ``transfer(node, in_fact)`` produces the node's out
    fact, ``join(a, b)`` merges facts along confluent edges, and
    ``init(node)`` seeds the in fact of nodes with no incoming edges
    (every node starts there, so unreachable nodes still get a sound
    fact).  ``direction="backward"`` flips the edges.  Returns
    ``{node: (in_fact, out_fact)}``.

    The worklist is seeded in the given node order and processed FIFO,
    so for a fixed input the iteration order — and therefore the result,
    even for non-distributive frameworks — is deterministic.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    nodes = list(nodes)
    flow: Dict = {n: [] for n in nodes}
    into: Dict = {n: [] for n in nodes}
    for node in nodes:
        for succ in edges.get(node, ()):
            if succ not in flow:
                continue
            if direction == "forward":
                flow[node].append(succ)
                into[succ].append(node)
            else:
                flow[succ].append(node)
                into[node].append(succ)
    in_facts = {n: init(n) for n in nodes}
    out_facts = {n: transfer(n, in_facts[n]) for n in nodes}
    pending = deque(nodes)
    queued = set(nodes)
    while pending:
        node = pending.popleft()
        queued.discard(node)
        merged = in_facts[node]
        for pred in into[node]:
            merged = join(merged, out_facts[pred])
        in_facts[node] = merged
        out = transfer(node, merged)
        if out == out_facts[node]:
            continue
        out_facts[node] = out
        for succ in flow[node]:
            if succ not in queued:
                queued.add(succ)
                pending.append(succ)
    return {n: (in_facts[n], out_facts[n]) for n in nodes}


# ---------------------------------------------------------------------------
# Per-instruction facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstrFacts:
    """Static summary of one decoded instruction at one address."""

    offset: int
    size: int
    reads: FrozenSet[str]
    writes: FrozenSet[str]
    #: ``(storage, value, definite)`` per scalar write, in RTL order.
    #: ``definite`` means unguarded and whole-storage (a *must* write
    #: that fully redefines the scalar); ``value`` is the statically
    #: known written value for definite writes, else None
    scalar_writes: Tuple[Tuple[str, Optional[int], bool], ...]
    writes_pc: bool
    conditional_pc: bool
    writes_imem: bool
    unresolved: bool
    #: "none" | "maybe" | "always" — does the instruction raise the halt
    #: flag (to a provably non-zero value, unguarded, for "always")
    halts: str
    #: resolved absolute branch-target addresses; None when some PC
    #: write could not be constant-folded
    pc_targets: Optional[Tuple[int, ...]]
    max_latency: int
    #: ``if`` guards that constant-fold to 0 under the decoded operands
    false_guards: Tuple[str, ...]


class _InstrAnalyzer:
    """Folds one decoded instruction's RTL into an :class:`InstrFacts`."""

    def __init__(self, desc: ast.Description):
        from ..gensim.cfg import ControlFlowAnalyzer
        from ..gensim.core import INTRINSIC_IMPLS

        self.desc = desc
        self.cfa = ControlFlowAnalyzer(desc)
        self.pc = self.cfa._pc
        self.pc_mask = mask(desc.storages[self.pc].width)
        self.imem = desc.instruction_memory().name
        halt = desc.attributes.get("halt_flag")
        self.halt = self._alias_base(halt) if halt else None
        self.intrinsics = INTRINSIC_IMPLS

    def _alias_base(self, name: str) -> str:
        alias = self.desc.aliases.get(name)
        return alias.storage if alias is not None else name

    def _read_oracle(self, address: int):
        """Storage-read oracle for const-eval: only the PC is known —
        during execution it holds the current instruction's address."""

        def read(node: rtl.StorageRead) -> Optional[int]:
            alias = self.desc.aliases.get(node.storage)
            if alias is not None:
                if alias.storage != self.pc or alias.index is not None \
                        or alias.hi is not None:
                    return None
                return address
            if node.storage == self.pc and node.index is None:
                return address
            return None

        return read

    def _const(self, expr: rtl.Expr, env, address: int) -> Optional[int]:
        return rtl.try_const_eval(
            expr, env, reads=self._read_oracle(address),
            intrinsics=self.intrinsics,
        )

    def summarize(self, decoded, offset: int, address: int) -> InstrFacts:
        flow = self.cfa.flow(decoded)
        scan = _RtlScan(self, address)

        def scan_unit(unit, operands) -> None:
            env = {
                name: value for name, value in operands.items()
                if isinstance(value, int)
            }
            bindings = self.cfa._nt_bindings(unit.params, operands)
            scan.stmts(list(unit.action) + list(unit.side_effect),
                       env, bindings, ())
            for pname, (option, _sub) in bindings.items():
                _label, sub_operands = operands[pname]
                scan_unit(option, sub_operands)

        for dop in decoded.operations:
            scan_unit(self.desc.operation(dop.field, dop.op_name),
                      dop.operands)
        if flow.writes_pc and not scan.pc_unresolved:
            targets: Optional[Tuple[int, ...]] = tuple(
                sorted({t & self.pc_mask for t in scan.pc_targets})
            )
        else:
            targets = None if flow.writes_pc else ()
        return InstrFacts(
            offset=offset,
            size=flow.size,
            reads=frozenset(scan.reads),
            writes=frozenset(scan.writes),
            scalar_writes=tuple(scan.scalar_writes),
            writes_pc=flow.writes_pc,
            conditional_pc=flow.conditional_pc,
            writes_imem=flow.writes_imem,
            unresolved=flow.unresolved,
            halts=scan.halts,
            pc_targets=targets,
            max_latency=flow.max_latency,
            false_guards=tuple(scan.false_guards),
        )


class _RtlScan:
    """One statement walk collecting reads, writes, PC targets, halt
    behaviour and constant-false guards, guard status threaded through.

    ``guards`` is a tuple of per-``if`` statuses: True (provably taken),
    None (unknown).  Branches whose guard folds to a constant restrict
    the walk to the taken side, which is what makes ``halts="always"``
    and PC-target sets precise on guarded RTL.
    """

    def __init__(self, owner: _InstrAnalyzer, address: int):
        self.owner = owner
        self.address = address
        self.reads: set = set()
        self.writes: set = set()
        self.scalar_writes: List[Tuple[str, Optional[int]]] = []
        self.pc_targets: List[int] = []
        self.pc_unresolved = False
        self.halts = "none"
        self.false_guards: List[str] = []

    def stmts(self, statements, env, bindings, guards) -> None:
        for stmt in statements:
            if isinstance(stmt, rtl.Assign):
                self._assign(stmt, env, bindings, guards)
            elif isinstance(stmt, rtl.If):
                self._reads_in(stmt.cond)
                value = self.owner._const(stmt.cond, env, self.address)
                if value is not None and not value:
                    self.false_guards.append(rtl.format_expr(stmt.cond))
                    self.stmts(stmt.orelse, env, bindings, guards)
                elif value:
                    self.stmts(stmt.then, env, bindings, guards)
                else:
                    self.stmts(stmt.then, env, bindings, guards + (None,))
                    self.stmts(stmt.orelse, env, bindings, guards + (None,))

    def _assign(self, stmt, env, bindings, guards) -> None:
        self._reads_in(stmt.expr)
        dest = stmt.dest
        if isinstance(dest, rtl.NtLV):
            return
        if isinstance(dest, rtl.ParamLV):
            binding = bindings.get(dest.name)
            target = binding[0].storage_target() if binding else None
            if target is None:
                return  # flow.unresolved already covers this
            dest = target
        if dest.index is not None:
            self._reads_in(dest.index)
        alias = self.owner.desc.aliases.get(dest.storage)
        base = self.owner._alias_base(dest.storage)
        self.writes.add(base)
        unguarded = not guards
        #: a slice assignment (directly or through a sliced/indexed
        #: alias) only redefines part of the storage
        partial = (
            dest.hi is not None
            or (alias is not None
                and (alias.hi is not None or alias.index is not None))
        )
        value = self.owner._const(stmt.expr, env, self.address)
        if base == self.owner.pc:
            if value is None or partial:
                self.pc_unresolved = True
            else:
                self.pc_targets.append(value)
            return
        if self.owner.halt is not None and base == self.owner.halt:
            if unguarded and value is not None and value != 0 \
                    and not partial:
                self.halts = "always"
            elif self.halts != "always":
                self.halts = "maybe"
        storage = self.owner.desc.storages.get(base)
        if storage is not None and not storage.addressed:
            definite = unguarded and not partial
            self.scalar_writes.append(
                (base, value if definite else None, definite)
            )

    def _reads_in(self, expr) -> None:
        for node in rtl.walk_exprs(expr):
            if isinstance(node, rtl.StorageRead):
                self.reads.add(self.owner._alias_base(node.storage))


# ---------------------------------------------------------------------------
# Per-block and per-program facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockFacts:
    """One discovered basic block plus its fixpoint facts."""

    start: int
    offsets: Tuple[int, ...]
    #: successor block entry offsets (falling off the program is an
    #: implicit exit edge, not listed here)
    succs: Tuple[int, ...]
    ends_in_branch: bool
    capped: bool
    #: some successor could not be resolved statically
    succs_unknown: bool
    #: control may leave the loaded program (runtime error unless halted)
    may_exit: bool
    reads: FrozenSet[str]
    writes: FrozenSet[str]
    #: scalar -> value known on entry / exit (constant propagation)
    const_in: Tuple[Tuple[str, int], ...]
    const_out: Tuple[Tuple[str, int], ...]
    #: (storage, writer offset) pairs reaching entry / exit
    reach_in: FrozenSet[Tuple[str, int]]
    reach_out: FrozenSet[Tuple[str, int]]
    #: storages a later execution may read, at entry / exit
    live_in: FrozenSet[str]
    live_out: FrozenSet[str]


@dataclass
class ProgramFacts:
    """Whole-program dataflow facts for one loaded word image."""

    name: str
    origin: int
    n_words: int
    #: entry block offset (PC resets to address 0); None when address 0
    #: is outside the loaded image
    entry: Optional[int]
    instr: Dict[int, InstrFacts]
    blocks: Dict[int, BlockFacts]
    reachable: FrozenSet[int]
    #: every reachable successor was resolved — reachability is exact
    complete: bool
    #: False: provably never halts; None: not provable either way
    halting: Optional[bool]
    reads: FrozenSet[str]
    writes: FrozenSet[str]

    @property
    def reachable_offsets(self) -> FrozenSet[int]:
        out = set()
        for start in self.reachable:
            out.update(self.blocks[start].offsets)
        return frozenset(out)


@dataclass
class ArchFacts:
    """Facts for one description across a set of workload programs."""

    programs: Dict[str, ProgramFacts]

    @property
    def complete(self) -> bool:
        return all(p.complete for p in self.programs.values())


def _build_blocks(analyzer: _InstrAnalyzer, instr: Dict[int, InstrFacts],
                  flows, origin: int, n_words: int):
    """Discover entry-reachable blocks and their successor edges."""
    from ..gensim.cfg import block_span

    entry = 0 - origin
    if not (0 <= entry < n_words) or flows[entry] is None:
        return None, {}, False
    raw: Dict[int, Dict] = {}
    complete = True
    pending = deque([entry])
    while pending:
        start = pending.popleft()
        if start in raw:
            continue
        span = block_span(flows, start)
        if not span:
            raw[start] = dict(span=(), succs=(), unknown=True, exit=True)
            complete = False
            continue
        last = instr[span[-1]]
        succs: List[int] = []
        unknown = False
        may_exit = False
        fall = span[-1] + last.size
        if last.unresolved or (last.writes_pc and last.pc_targets is None):
            unknown = True
            complete = False
        else:
            if last.writes_pc:
                for target in last.pc_targets:
                    offset = target - origin
                    if 0 <= offset < n_words and flows[offset] is not None:
                        succs.append(offset)
                    else:
                        may_exit = True
            if not last.writes_pc or last.conditional_pc:
                if 0 <= fall < n_words and flows[fall] is not None:
                    succs.append(fall)
                else:
                    may_exit = True
        raw[start] = dict(
            span=span, succs=tuple(dict.fromkeys(succs)),
            unknown=unknown, exit=may_exit,
        )
        for succ in raw[start]["succs"]:
            if succ not in raw:
                pending.append(succ)
    return entry, raw, complete


def _program_fixpoints(instr: Dict[int, InstrFacts], raw: Dict[int, Dict],
                       entry: int, analyzer: _InstrAnalyzer):
    """Run the three block-level lattices over the discovered CFG."""
    starts = sorted(raw)
    edges = {s: raw[s]["succs"] for s in starts}

    def block_summary(start):
        reads: set = set()
        writes: set = set()
        for offset in raw[start]["span"]:
            facts = instr[offset]
            reads |= facts.reads
            writes |= facts.writes
        return reads, writes

    summaries = {s: block_summary(s) for s in starts}

    # Constant propagation: {scalar: value}, absence = unknown, with a
    # None sentinel for "not yet reached" (the identity of the
    # agree-or-unknown join — a plain {} seed would wrongly drop every
    # constant at the first merge).
    def const_transfer(start, env):
        if env is None:
            return None
        env = dict(env)
        for offset in raw[start]["span"]:
            for name, value, definite in instr[offset].scalar_writes:
                if definite and value is not None:
                    env[name] = value & mask(
                        analyzer.desc.storages[name].width
                    )
                else:
                    env.pop(name, None)
            # array writes never touch env; sliced-alias writes appear
            # as non-definite scalar_write entries and invalidate
        return env

    def const_join(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return {k: v for k, v in a.items() if b.get(k) == v}

    const = fixpoint(
        starts, edges, const_transfer, const_join,
        # entry state: nothing known (storage persists across resets)
        lambda s: {} if s == entry else None,
    )

    # Reaching writes: {(storage, offset)}.
    def reach_transfer(start, incoming):
        out = set(incoming)
        for offset in raw[start]["span"]:
            written = instr[offset].writes
            out = {p for p in out if p[0] not in written}
            out |= {(name, offset) for name in written}
        return frozenset(out)

    reach = fixpoint(
        starts, edges, reach_transfer,
        lambda a, b: frozenset(a | b), lambda s: frozenset(),
    )

    # Liveness (backward): storages a later execution may read.  The
    # boundary is empty — observability of the *final* state is not the
    # question this lattice answers (see the module docstring).
    def live_transfer(start, live_out):
        live = set(live_out)
        for offset in reversed(raw[start]["span"]):
            facts = instr[offset]
            # kill only *definite* (unguarded, whole-storage) scalar
            # writes; array, sliced and guarded writes may leave old
            # contents visible and so must not kill
            for name, _value, definite in facts.scalar_writes:
                if definite:
                    live.discard(name)
            live |= facts.reads
        return frozenset(live)

    live = fixpoint(
        starts, edges, live_transfer,
        lambda a, b: frozenset(a | b), lambda s: frozenset(),
        direction="backward",
    )

    blocks: Dict[int, BlockFacts] = {}
    for start in starts:
        info = raw[start]
        reads, writes = summaries[start]
        last = instr[info["span"][-1]] if info["span"] else None
        capped = bool(
            info["span"]
            and not (last.writes_pc or last.unresolved)
            and info["succs"]
        )
        blocks[start] = BlockFacts(
            start=start,
            offsets=tuple(info["span"]),
            succs=info["succs"],
            ends_in_branch=bool(last and last.writes_pc),
            capped=capped,
            succs_unknown=info["unknown"],
            may_exit=info["exit"],
            reads=frozenset(reads),
            writes=frozenset(writes),
            const_in=tuple(sorted((const[start][0] or {}).items())),
            const_out=tuple(sorted((const[start][1] or {}).items())),
            reach_in=reach[start][0],
            reach_out=reach[start][1],
            live_in=live[start][1],  # backward: transfer output is "in"
            live_out=live[start][0],
        )
    return blocks


def _build_program_facts(desc: ast.Description, words: Sequence[int],
                         origin: int, name: str, table=None) -> ProgramFacts:
    from ..gensim.disassembler import Disassembler

    analyzer = _InstrAnalyzer(desc)
    disasm = Disassembler(desc, table)
    decoded = [disasm.disassemble(word) for word in words]
    flows = analyzer.cfa.flows_for_program(decoded)
    n_words = len(words)
    instr: Dict[int, InstrFacts] = {
        offset: analyzer.summarize(decoded[offset], offset, origin + offset)
        for offset in range(n_words)
        if flows[offset] is not None
    }
    entry, raw, complete = _build_blocks(
        analyzer, instr, flows, origin, n_words
    )
    blocks: Dict[int, BlockFacts] = {}
    halting: Optional[bool] = None
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    if entry is not None and raw:
        blocks = _program_fixpoints(instr, raw, entry, analyzer)
        all_reads: set = set()
        all_writes: set = set()
        halts = "none"
        may_exit = False
        for facts in blocks.values():
            all_reads |= facts.reads
            all_writes |= facts.writes
            may_exit = may_exit or facts.may_exit
            for offset in facts.offsets:
                if instr[offset].halts == "always":
                    halts = "always"
                elif instr[offset].halts == "maybe" and halts == "none":
                    halts = "maybe"
        reads = frozenset(all_reads)
        writes = frozenset(all_writes)
        # "provably never halts" needs exact reachability, no reachable
        # halt write, and no escape from the loaded image (running off
        # the program ends the run too, just not by halting)
        if complete and halts == "none" and not may_exit:
            halting = False
    else:
        complete = False
    return ProgramFacts(
        name=name,
        origin=origin,
        n_words=n_words,
        entry=entry,
        instr=instr,
        blocks=blocks,
        reachable=frozenset(blocks),
        complete=complete,
        halting=halting,
        reads=reads,
        writes=writes,
    )


def program_facts(desc: ast.Description, words: Sequence[int],
                  origin: int = 0, *, name: str = "<program>",
                  table=None) -> ProgramFacts:
    """Dataflow facts for *words* loaded at *origin* under *desc*.

    *table* is the description's signature table, when the caller holds
    one, to decode the words with.
    """
    with obs.span("analyze.dataflow", desc=desc.name, program=name):
        return _build_program_facts(desc, words, origin, name, table)


def arch_facts(desc: ast.Description,
               programs: Sequence[Tuple[str, Sequence[int], int]], *,
               table=None) -> ArchFacts:
    """Facts for every ``(name, words, origin)`` program under *desc*."""
    return ArchFacts(
        programs={
            name: program_facts(desc, words, origin, name=name, table=table)
            for name, words, origin in programs
        },
    )
