"""The analysis passes and the pass manager.

Each pass is a pure function over a :class:`PassContext` (the description
plus lazily shared artifacts like the signature table) returning a list of
:class:`~repro.analyze.diagnostics.Diagnostic`.  :func:`analyze` runs the
semantic checker first — a description that is not well-formed is reported
and the deeper passes are skipped, because they assume a checked AST — and
then every registered pass, each under its own :mod:`repro.obs` span.

:func:`check_static` is the exploration-loop entry point: the semantic
stage and the passes that can emit an error decide whether a candidate is
accepted, and only a rejection runs the full pipeline, to explain itself.
The answer is memoized in an :class:`~repro.cache.ArtifactCache` by the
description's structural fingerprint, so a sweep that re-proposes a known
candidate (or re-runs warm) pays a dictionary lookup.

The passes:

* **decode-ambiguity** (``ISDL101/102``) — pairwise signature-overlap
  check: two operations of one field (or two options of one non-terminal)
  whose constant bit images do not conflict can match the same word.  This
  is the static dual of the paper's Fig. 4 disassembler, which relies on a
  *unique* constant match; see also Axiom 1 (§3.3.2).
* **constraints** (``ISDL202/203``) — boolean analysis of each
  constraint over the field→operation choices it mentions: unsatisfiable
  constraints forbid *every* instruction (error); vacuous constraints
  forbid none (warning).  Unknown references (``ISDL201``) are reported by
  the semantic stage.
* **rtl-dataflow** (``ISDL301/302/303``) — storage reads that no
  operation ever writes, writes that are dead (unconditionally shadowed
  within the same instruction before any read), and write-write conflicts
  where two operations that may share an instruction word both write one
  location in the same cycle.
* **unused-definitions** (``ISDL401..404``) — tokens, non-terminals,
  storages and aliases never reachable from any operation.
* **encoding-space** (``ISDL501/502``) — unassigned opcode patterns per
  field and instruction bits no operation ever defines.
* **dataflow** (``ISDL601..605``) — whole-program reasoning on top of
  :mod:`repro.analyze.dataflow`: always-false guards and conditionally
  dead writes in the bare RTL, plus — when the caller supplies decoded
  workload programs — unreachable basic blocks, provably never-halting
  programs, and storages whose writes are provably dead across every
  supplied program.

Diagnostics are deduplicated and reported in a total order (code, then
source location, then context, then message) so repeated runs — and the
JSON/SARIF reports derived from them — are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..encoding.signature import SignatureTable
from ..isdl import ast, rtl, semantics
from ..isdl.fingerprint import fingerprint
from .diagnostics import AnalysisResult, Diagnostic, Severity

__all__ = [
    "PassContext",
    "AnalysisPass",
    "ALL_PASSES",
    "pass_named",
    "analyze",
    "check_static",
]

#: An unsatisfiability/vacuity check enumerates assignments over the
#: fields a constraint references; constraints this combinatorial are
#: skipped (none of our descriptions come close).
MAX_CONSTRAINT_ASSIGNMENTS = 4096


class PassContext:
    """What a pass may look at: the description plus shared artifacts.

    *programs* is an optional sequence of ``(name, words, origin)``
    decoded-word images (assembled workloads, typically): the dataflow
    pass runs its whole-program lints only when they are supplied.
    """

    def __init__(self, desc: ast.Description,
                 table: Optional[SignatureTable] = None,
                 cache=None, fp: Optional[str] = None,
                 programs: Optional[Sequence[Tuple]] = None):
        self.desc = desc
        self.cache = cache
        self.fp = fp
        self.programs: Tuple[Tuple[str, Tuple[int, ...], int], ...] = (
            tuple((name, tuple(words), origin)
                  for name, words, origin in programs)
            if programs else ()
        )
        self._table = table

    @property
    def table(self) -> SignatureTable:
        """The signature table, built once and shared with the tool chain
        (through the artifact cache when one is attached)."""
        if self._table is None:
            if self.cache is not None:
                self._table = self.cache.signature_table(self.desc, self.fp)
            else:
                self._table = SignatureTable(self.desc)
        return self._table


@dataclass(frozen=True)
class AnalysisPass:
    """A registered analysis: name, code range, and the pass function.

    *emits_errors* says whether the pass can report an error, and so
    reject a candidate; :func:`check_static` runs only those passes
    unless one of them rejects.
    """

    name: str
    codes: str  # e.g. "ISDL101-ISDL102"
    description: str
    run: Callable[[PassContext], List[Diagnostic]]
    emits_errors: bool = False


# ---------------------------------------------------------------------------
# Pass 1: decode ambiguity (ISDL101, ISDL102)
# ---------------------------------------------------------------------------


def _ambiguous_pairs(signatures) -> List[Tuple[str, str, int]]:
    """``(name_a, name_b, witness_word)`` for non-conflicting pairs.

    Two encodings are distinguishable iff some bit is constant in both
    with opposite values; without such a bit the word carrying both
    constant images (don't-cares zero) matches both.
    """
    pairs = []
    items = list(signatures)
    for i, (name_a, sig_a) in enumerate(items):
        for name_b, sig_b in items[i + 1:]:
            common = sig_a.constant_mask & sig_b.constant_mask
            if (sig_a.constant_value & common) == (
                sig_b.constant_value & common
            ):
                witness = sig_a.constant_value | sig_b.constant_value
                pairs.append((name_a, name_b, witness))
    return pairs


def pass_decode_ambiguity(ctx: PassContext) -> List[Diagnostic]:
    desc, table = ctx.desc, ctx.table
    diagnostics: List[Diagnostic] = []
    for fld in desc.fields:
        signatures = [
            (op.name, table.operation(fld.name, op.name))
            for op in fld.operations
        ]
        for op_a, op_b, witness in _ambiguous_pairs(signatures):
            diagnostics.append(Diagnostic(
                "ISDL101", Severity.ERROR,
                f"operations {fld.name}.{op_a} and {fld.name}.{op_b} have"
                f" non-conflicting constant signatures: word"
                f" 0x{witness:x} matches both (decode is ambiguous)",
                where=f"{fld.name}.{op_a}",
                location=fld.operation(op_a).location or fld.location,
            ))
    for nt in desc.nonterminals.values():
        signatures = [
            (opt.label, table.option(nt.name, opt.label))
            for opt in nt.options
        ]
        for opt_a, opt_b, witness in _ambiguous_pairs(signatures):
            diagnostics.append(Diagnostic(
                "ISDL102", Severity.ERROR,
                f"non-terminal options {nt.name}.{opt_a} and"
                f" {nt.name}.{opt_b} have non-conflicting constant"
                f" signatures: value 0x{witness:x} matches both",
                where=f"{nt.name}.{opt_a}",
                location=nt.option(opt_a).location or nt.location,
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Pass 2: constraint analysis (ISDL202, ISDL203)
# ---------------------------------------------------------------------------


def _constraint_assignments(expr: ast.CExpr):
    """Yield every relevant field→operation assignment for *expr*.

    Constraint truth depends only on whether each referenced field's
    selected operation equals each referenced name; any other selection —
    including the field being absent from the instruction — behaves like
    ``None``, so the domain per field is its referenced ops plus ``None``.
    """
    by_field: Dict[str, Set[Optional[str]]] = {}
    for ref in ast.oprefs_in(expr):
        by_field.setdefault(ref.field, {None}).add(ref.op)
    fields = sorted(by_field)
    domains = [sorted(by_field[f], key=lambda v: (v is not None, v))
               for f in fields]
    total = 1
    for domain in domains:
        total *= len(domain)
    if total > MAX_CONSTRAINT_ASSIGNMENTS:
        return None
    assignments = []
    for combo in product(*domains):
        assignments.append({
            f: op for f, op in zip(fields, combo) if op is not None
        })
    return assignments


def pass_constraints(ctx: PassContext) -> List[Diagnostic]:
    desc = ctx.desc
    diagnostics: List[Diagnostic] = []
    known = {(fld.name, op.name) for fld, op in desc.operations()}
    for i, constraint in enumerate(desc.constraints):
        label = constraint.text or f"constraint #{i + 1}"
        refs = list(ast.oprefs_in(constraint.expr))
        if any((r.field, r.op) not in known for r in refs):
            continue  # dangling reference: already ISDL201 upstream
        assignments = _constraint_assignments(constraint.expr)
        if assignments is None:
            continue  # too combinatorial to enumerate; stay silent
        truths = [
            ast.evaluate_constraint(constraint.expr, selected)
            for selected in assignments
        ]
        if not any(truths):
            diagnostics.append(Diagnostic(
                "ISDL202", Severity.ERROR,
                f"{label} is unsatisfiable: no field->operation choice"
                " can meet it, so every instruction is forbidden",
                where=label,
                location=constraint.location,
            ))
        elif all(truths):
            diagnostics.append(Diagnostic(
                "ISDL203", Severity.WARNING,
                f"{label} is vacuous: it holds for every field->operation"
                " choice and can never forbid an instruction",
                where=label,
                location=constraint.location,
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Pass 3: RTL dataflow (ISDL301, ISDL302, ISDL303)
# ---------------------------------------------------------------------------

#: Storage kinds whose contents exist before the first instruction runs
#: (program images, data images, externally driven I/O) — reading them
#: without a prior write is the normal case, not a lint.
_EXTERNALLY_INITIALIZED = frozenset({
    ast.StorageKind.INSTRUCTION_MEMORY,
    ast.StorageKind.DATA_MEMORY,
    ast.StorageKind.MEMORY_MAPPED_IO,
    ast.StorageKind.REGISTER_FILE,
    ast.StorageKind.STACK,
    ast.StorageKind.PROGRAM_COUNTER,
})


def _alias_base(desc: ast.Description, name: str) -> str:
    alias = desc.aliases.get(name)
    return alias.storage if alias is not None else name


def _rtl_blocks(desc: ast.Description):
    """Yield ``(where, location, stmts)`` for every reachable RTL block:
    each operation's action+side_effect, then each NT option's."""
    for fld, op in desc.operations():
        yield (
            f"{fld.name}.{op.name}", op.location,
            list(op.action) + list(op.side_effect),
        )
    for nt in desc.nonterminals.values():
        for opt in nt.options:
            yield (
                f"{nt.name}.{opt.label}", opt.location,
                list(opt.action) + list(opt.side_effect),
            )


def _reads_in_stmt(stmt: rtl.Stmt) -> Set[str]:
    """Base storages read anywhere in one statement (conditions, RHS,
    index expressions of the destination included)."""
    names: Set[str] = set()
    roots: List[rtl.Expr] = []
    if isinstance(stmt, rtl.Assign):
        roots.append(stmt.expr)
        if isinstance(stmt.dest, rtl.StorageLV) and stmt.dest.index is not None:
            roots.append(stmt.dest.index)
    elif isinstance(stmt, rtl.If):
        roots.append(stmt.cond)
    for root in roots:
        for node in rtl.walk_exprs(root):
            if isinstance(node, rtl.StorageRead):
                names.add(node.storage)
    return names


def _static_index(expr: Optional[rtl.Expr]) -> Optional[Tuple]:
    """A hashable image of an index expression when it is static enough
    to compare structurally (literals and parameter references only)."""
    if expr is None:
        return ("none",)
    if isinstance(expr, rtl.IntLit):
        return ("int", expr.value)
    if isinstance(expr, rtl.ParamRef):
        return ("param", expr.name)
    return None


def _write_key(desc: ast.Description,
               dest: rtl.StorageLV) -> Optional[Tuple]:
    """A comparable identity for an exact storage write, or None when the
    written location cannot be pinned down statically."""
    alias = desc.aliases.get(dest.storage)
    if alias is not None:
        if dest.hi is not None:
            return None  # a slice of an alias slice: too clever to track
        return (alias.storage, ("int", alias.index) if alias.index is not None
                else ("none",), alias.hi, alias.lo)
    index = _static_index(dest.index)
    if index is None:
        return None
    return (dest.storage, index, dest.hi, dest.lo)


def _dead_writes(desc: ast.Description, where: str,
                 stmts: Sequence[rtl.Stmt]) -> List[Diagnostic]:
    """ISDL302: unconditional writes shadowed before any read."""
    diagnostics: List[Diagnostic] = []
    pending: Dict[Tuple, Tuple[rtl.Assign, str]] = {}
    for stmt in stmts:  # top level only: If bodies are control-dependent
        if isinstance(stmt, rtl.If):
            touched = {
                _alias_base(desc, n)
                for n in rtl.storages_read([stmt]) | rtl.storages_written([stmt])
            }
            for key in [k for k, (_, base) in pending.items()
                        if base in touched]:
                del pending[key]
            continue
        if not isinstance(stmt, rtl.Assign):
            continue
        read_bases = {_alias_base(desc, n) for n in _reads_in_stmt(stmt)}
        for key in [k for k, (_, base) in pending.items()
                    if base in read_bases]:
            del pending[key]
        dest = stmt.dest
        if not isinstance(dest, rtl.StorageLV):
            pending.clear()  # writes through $$/NT params: unknown target
            continue
        key = _write_key(desc, dest)
        if key is None:
            continue
        earlier = pending.get(key)
        if earlier is not None:
            diagnostics.append(Diagnostic(
                "ISDL302", Severity.WARNING,
                f"{where}: write to {rtl.format_lvalue(earlier[0].dest)} is"
                " dead — unconditionally overwritten in the same"
                " instruction before any read",
                where=where,
                location=earlier[0].location,
            ))
        pending[key] = (stmt, _alias_base(desc, dest.storage))
    return diagnostics


def _unconditional_write_keys(desc: ast.Description,
                              stmts: Sequence[rtl.Stmt]) -> Set[Tuple]:
    """Exactly-located unconditional writes of one RTL block, excluding
    dynamically indexed destinations (different operands rarely collide)."""
    keys: Set[Tuple] = set()
    for stmt in stmts:
        if isinstance(stmt, rtl.Assign) and isinstance(
            stmt.dest, rtl.StorageLV
        ):
            index = (stmt.dest.index is None
                     or isinstance(stmt.dest.index, rtl.IntLit))
            if not index:
                continue
            key = _write_key(desc, stmt.dest)
            if key is not None:
                keys.add(key)
    return keys


def pass_rtl_dataflow(ctx: PassContext) -> List[Diagnostic]:
    desc = ctx.desc
    diagnostics: List[Diagnostic] = []

    # ISDL301 — reads of storage no operation ever writes.
    reads: Set[str] = set()
    writes: Set[str] = set()
    for _, _, stmts in _rtl_blocks(desc):
        reads |= {_alias_base(desc, n) for n in rtl.storages_read(stmts)}
        writes |= {_alias_base(desc, n) for n in rtl.storages_written(stmts)}
    for storage in desc.storages.values():
        if storage.kind in _EXTERNALLY_INITIALIZED:
            continue
        if storage.name in reads and storage.name not in writes:
            diagnostics.append(Diagnostic(
                "ISDL301", Severity.WARNING,
                f"storage {storage.name!r} is read but never written by"
                " any operation — every read sees the reset value",
                where=storage.name,
                location=storage.location,
            ))

    # ISDL302 — dead writes within one instruction.
    for where, _, stmts in _rtl_blocks(desc):
        diagnostics.extend(_dead_writes(desc, where, stmts))

    # ISDL303 — write-write conflicts between co-schedulable operations.
    per_op: List[Tuple[str, str, Set[Tuple]]] = []
    for fld, op in desc.operations():
        stmts = list(op.action) + list(op.side_effect)
        per_op.append((
            fld.name, op.name, _unconditional_write_keys(desc, stmts)
        ))
    for i, (field_a, op_a, keys_a) in enumerate(per_op):
        if not keys_a:
            continue
        for field_b, op_b, keys_b in per_op[i + 1:]:
            if field_a == field_b:
                continue
            shared = keys_a & keys_b
            if not shared:
                continue
            if not desc.instruction_valid({field_a: op_a, field_b: op_b}):
                continue  # a constraint already forbids the combination
            names = sorted({key[0] for key in shared})
            diagnostics.append(Diagnostic(
                "ISDL303", Severity.WARNING,
                f"operations {field_a}.{op_a} and {field_b}.{op_b} may"
                f" share an instruction and both write"
                f" {', '.join(names)} in the same cycle",
                where=f"{field_a}.{op_a}",
                location=desc.operation(field_a, op_a).location,
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Pass 4: unused definitions (ISDL401..ISDL404)
# ---------------------------------------------------------------------------


def pass_unused_definitions(ctx: PassContext) -> List[Diagnostic]:
    desc = ctx.desc
    diagnostics: List[Diagnostic] = []

    used_tokens: Set[str] = set()
    used_nts: Set[str] = set()
    worklist: List[str] = []  # NT names whose options are still to visit

    def mark(type_name: str) -> None:
        if type_name in desc.nonterminals:
            if type_name not in used_nts:
                used_nts.add(type_name)
                worklist.append(type_name)
        else:
            used_tokens.add(type_name)

    for _, op in desc.operations():
        for param in op.params:
            mark(param.type_name)
    while worklist:
        for opt in desc.nonterminals[worklist.pop()].options:
            for param in opt.params:
                mark(param.type_name)

    referenced: Set[str] = set()  # raw names in RTL (storages or aliases)
    for _, _, stmts in _rtl_blocks(desc):
        referenced |= rtl.storages_read(stmts)
        referenced |= rtl.storages_written(stmts)
    used_storages = {_alias_base(desc, n) for n in referenced}
    # The sequencer and the run loop use these without RTL mentions.
    for storage in desc.storages.values():
        if storage.kind in (ast.StorageKind.PROGRAM_COUNTER,
                            ast.StorageKind.INSTRUCTION_MEMORY):
            used_storages.add(storage.name)
    for attr_value in desc.attributes.values():
        used_storages.add(_alias_base(desc, attr_value))

    for token in desc.tokens.values():
        if token.name not in used_tokens:
            diagnostics.append(Diagnostic(
                "ISDL401", Severity.WARNING,
                f"token {token.name!r} is never used as a parameter type",
                where=token.name, location=token.location,
            ))
    for nt in desc.nonterminals.values():
        if nt.name not in used_nts:
            diagnostics.append(Diagnostic(
                "ISDL402", Severity.WARNING,
                f"non-terminal {nt.name!r} is never used as a parameter"
                " type of any operation",
                where=nt.name, location=nt.location,
            ))
    for storage in desc.storages.values():
        if storage.name not in used_storages:
            diagnostics.append(Diagnostic(
                "ISDL403", Severity.WARNING,
                f"storage {storage.name!r} is never read or written by"
                " any operation",
                where=storage.name, location=storage.location,
            ))
    for alias in desc.aliases.values():
        if alias.name not in referenced and alias.name not in set(
            desc.attributes.values()
        ):
            diagnostics.append(Diagnostic(
                "ISDL404", Severity.INFO,
                f"alias {alias.name!r} is never referenced",
                where=alias.name, location=alias.location,
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Pass 5: encoding-space coverage (ISDL501, ISDL502)
# ---------------------------------------------------------------------------


def _bit_positions(mask: int) -> List[int]:
    positions = []
    bit = 0
    while mask:
        if mask & 1:
            positions.append(bit)
        mask >>= 1
        bit += 1
    return positions


def pass_encoding_space(ctx: PassContext) -> List[Diagnostic]:
    desc, table = ctx.desc, ctx.table
    diagnostics: List[Diagnostic] = []
    defined_anywhere = 0
    for fld in desc.fields:
        signatures = [
            table.operation(fld.name, op.name) for op in fld.operations
        ]
        opcode_mask = 0
        for sig in signatures:
            opcode_mask |= sig.constant_mask
            defined_anywhere |= sig.defined_mask
        opcode_bits = len(_bit_positions(opcode_mask))
        if opcode_bits == 0:
            continue
        total = 1 << opcode_bits
        claimed = 0
        for sig in signatures:
            own = len(_bit_positions(sig.constant_mask & opcode_mask))
            claimed += 1 << (opcode_bits - own)
        holes = max(total - claimed, 0)
        if holes:
            diagnostics.append(Diagnostic(
                "ISDL501", Severity.INFO,
                f"field {fld.name!r} leaves {holes} of {total} opcode"
                f" patterns unassigned over bits"
                f" {_bit_positions(opcode_mask)}",
                where=fld.name, location=fld.location,
            ))
    wasted = [
        position for position in range(desc.word_width)
        if not (defined_anywhere >> position) & 1
    ]
    if wasted:
        diagnostics.append(Diagnostic(
            "ISDL502", Severity.INFO,
            f"instruction bits {wasted} are don't-care in every operation"
            " of every field (wasted encoding space)",
            where=desc.name,
        ))
    return diagnostics


# ---------------------------------------------------------------------------
# Pass 6: whole-program dataflow (ISDL601..ISDL605)
# ---------------------------------------------------------------------------

#: Storage kinds whose writes are externally observable (program output,
#: I/O, the sequencer's own state) — a write nothing reads back is the
#: normal case there, not a dead store.
_DEAD_STORE_EXEMPT = frozenset({
    ast.StorageKind.PROGRAM_COUNTER,
    ast.StorageKind.INSTRUCTION_MEMORY,
    ast.StorageKind.MEMORY_MAPPED_IO,
    ast.StorageKind.DATA_MEMORY,
})


def _false_guards(desc: ast.Description, where: str, location,
                  stmts: Sequence[rtl.Stmt],
                  texts: Set[str]) -> List[Diagnostic]:
    """ISDL603 (description level): guards that fold to a constant 0
    with no operand bindings at all — false for *every* instruction.
    The formatted guard texts land in *texts* so the per-program check
    can skip them (they would re-fire at every decoded occurrence)."""
    diagnostics: List[Diagnostic] = []

    def walk(body: Sequence[rtl.Stmt]) -> None:
        for stmt in body:
            if not isinstance(stmt, rtl.If):
                continue
            value = rtl.try_const_eval(stmt.cond)
            if value is not None and not value:
                text = rtl.format_expr(stmt.cond)
                texts.add(text)
                diagnostics.append(Diagnostic(
                    "ISDL603", Severity.WARNING,
                    f"{where}: guard {text!r} is always false — its"
                    " then-branch can never execute",
                    where=where,
                    location=stmt.location or location,
                ))
            walk(stmt.then)
            walk(stmt.orelse)

    walk(stmts)
    return diagnostics


def _guarded_write_keys(desc: ast.Description,
                        stmt: rtl.If) -> List[Tuple[Tuple, rtl.Assign]]:
    """Exactly-located writes anywhere under *stmt*'s guard."""
    out: List[Tuple[Tuple, rtl.Assign]] = []

    def walk(body: Sequence[rtl.Stmt]) -> None:
        for inner in body:
            if isinstance(inner, rtl.If):
                walk(inner.then)
                walk(inner.orelse)
            elif isinstance(inner, rtl.Assign) and isinstance(
                inner.dest, rtl.StorageLV
            ):
                key = _write_key(desc, inner.dest)
                if key is not None:
                    out.append((key, inner))

    walk(stmt.then)
    walk(stmt.orelse)
    return out


def _dead_conditional_writes(desc: ast.Description, where: str,
                             stmts: Sequence[rtl.Stmt]) -> List[Diagnostic]:
    """ISDL604: a guarded write later overwritten unconditionally (with
    no intervening read of the storage) can never be observed — the
    guard is evaluated for nothing.  The complement of ISDL302, which
    only reports *unconditional* shadowed writes."""
    diagnostics: List[Diagnostic] = []
    #: write key -> guarded Assigns still awaiting a read (key[0] is
    #: always the base storage, see _write_key)
    pending: Dict[Tuple, List[rtl.Assign]] = {}

    def invalidate(read_bases: Set[str]) -> None:
        for key in [k for k in pending if k[0] in read_bases]:
            del pending[key]

    for stmt in stmts:
        if isinstance(stmt, rtl.If):
            invalidate({
                _alias_base(desc, n) for n in rtl.storages_read([stmt])
            })
            for key, guarded in _guarded_write_keys(desc, stmt):
                pending.setdefault(key, []).append(guarded)
            continue
        if not isinstance(stmt, rtl.Assign):
            continue
        invalidate({_alias_base(desc, n) for n in _reads_in_stmt(stmt)})
        dest = stmt.dest
        if not isinstance(dest, rtl.StorageLV):
            pending.clear()  # write through $$/NT params: unknown target
            continue
        key = _write_key(desc, dest)
        if key is None:
            continue
        for guarded in pending.pop(key, ()):
            diagnostics.append(Diagnostic(
                "ISDL604", Severity.WARNING,
                f"{where}: conditional write to"
                f" {rtl.format_lvalue(guarded.dest)} is dead — a later"
                " unconditional write overwrites it before any read",
                where=where,
                location=guarded.location,
            ))
    return diagnostics


def _unreachable_runs(facts) -> List[Tuple[int, int]]:
    """Maximal ``(start offset, instruction count)`` runs of decodable
    words outside the entry-reachable block cover."""
    reachable = facts.reachable_offsets
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    count = 0
    expected: Optional[int] = None
    for offset in sorted(facts.instr):
        if offset in reachable:
            if start is not None:
                runs.append((start, count))
                start = None
            continue
        if start is not None and offset == expected:
            count += 1
        else:
            if start is not None:
                runs.append((start, count))
            start, count = offset, 1
        expected = offset + facts.instr[offset].size
    if start is not None:
        runs.append((start, count))
    return runs


def pass_dataflow(ctx: PassContext) -> List[Diagnostic]:
    desc = ctx.desc
    diagnostics: List[Diagnostic] = []
    halt = desc.attributes.get("halt_flag")
    halt_base = _alias_base(desc, halt) if halt else None

    # -- description level --------------------------------------------------

    # ISDL602 — a halt flag nothing ever raises: no program can halt.
    if halt_base is not None:
        written: Set[str] = set()
        for _, _, stmts in _rtl_blocks(desc):
            written |= {
                _alias_base(desc, n) for n in rtl.storages_written(stmts)
            }
        if halt_base not in written:
            diagnostics.append(Diagnostic(
                "ISDL602", Severity.WARNING,
                f"halt flag {halt!r} is never written by any operation —"
                " no program on this architecture can ever halt",
                where=desc.name,
            ))

    static_false: Set[str] = set()
    for where, location, stmts in _rtl_blocks(desc):
        diagnostics.extend(
            _false_guards(desc, where, location, stmts, static_false)
        )
        diagnostics.extend(_dead_conditional_writes(desc, where, stmts))

    # -- whole-program level (needs decoded word images) --------------------

    if not ctx.programs:
        return diagnostics
    from .dataflow import arch_facts

    facts = arch_facts(desc, ctx.programs, table=ctx.table)
    for name, program in sorted(facts.programs.items()):
        if program.complete:
            for start, length in _unreachable_runs(program):
                diagnostics.append(Diagnostic(
                    "ISDL601", Severity.WARNING,
                    f"program {name!r}: block at word offset {start:#x}"
                    f" ({length} instruction(s)) is unreachable from the"
                    " entry point",
                    where=name,
                ))
            for offset in sorted(program.reachable_offsets):
                for guard in program.instr[offset].false_guards:
                    if guard in static_false:
                        continue  # already reported for every instruction
                    diagnostics.append(Diagnostic(
                        "ISDL603", Severity.WARNING,
                        f"program {name!r}: guard {guard!r} at word offset"
                        f" {offset:#x} is always false under the decoded"
                        " operands",
                        where=name,
                    ))
        if program.halting is False:
            diagnostics.append(Diagnostic(
                "ISDL602", Severity.WARNING,
                f"program {name!r} provably never halts: no reachable"
                " instruction writes the halt flag and control never"
                " leaves the loaded image",
                where=name,
            ))

    # ISDL605 — storages written but never read across *every* supplied
    # program; sound only when reachability is exact everywhere.
    if facts.complete:
        written_all: Set[str] = set()
        read_all: Set[str] = set()
        for program in facts.programs.values():
            written_all |= program.writes
            read_all |= program.reads
        for storage in desc.storages.values():
            if storage.kind in _DEAD_STORE_EXEMPT \
                    or storage.name == halt_base:
                continue
            if storage.name in written_all and storage.name not in read_all:
                diagnostics.append(Diagnostic(
                    "ISDL605", Severity.INFO,
                    f"storage {storage.name!r} is written but never read"
                    f" by any reachable instruction of the"
                    f" {len(facts.programs)} supplied program(s) — every"
                    " write is provably dead",
                    where=storage.name,
                    location=storage.location,
                ))
    return diagnostics


# ---------------------------------------------------------------------------
# The registry and the pass manager
# ---------------------------------------------------------------------------

ALL_PASSES: Tuple[AnalysisPass, ...] = (
    AnalysisPass(
        "decode-ambiguity", "ISDL101-ISDL102",
        "operations/options whose constant signatures can match one word",
        pass_decode_ambiguity,
        emits_errors=True,
    ),
    AnalysisPass(
        "constraints", "ISDL202-ISDL203",
        "unsatisfiable and vacuous boolean constraints",
        pass_constraints,
        emits_errors=True,
    ),
    AnalysisPass(
        "rtl-dataflow", "ISDL301-ISDL303",
        "never-written reads, dead writes, same-cycle write conflicts",
        pass_rtl_dataflow,
    ),
    AnalysisPass(
        "unused-definitions", "ISDL401-ISDL404",
        "tokens, non-terminals, storages and aliases nothing reaches",
        pass_unused_definitions,
    ),
    AnalysisPass(
        "encoding-space", "ISDL501-ISDL502",
        "unassigned opcode patterns and wasted instruction bits",
        pass_encoding_space,
    ),
    AnalysisPass(
        "dataflow", "ISDL601-ISDL605",
        "always-false guards, dead conditional writes; with programs:"
        " unreachable blocks, never-halting, program-dead stores",
        pass_dataflow,
    ),
)


def pass_named(name: str) -> AnalysisPass:
    for analysis in ALL_PASSES:
        if analysis.name == name:
            return analysis
    raise KeyError(name)


def _loc_key(diagnostic: Diagnostic) -> Tuple[str, int, int]:
    location = diagnostic.location
    if location is None:
        return ("", 0, 0)
    return (location.filename or "", location.line, location.column)


def _ordered(diagnostics: Sequence[Diagnostic]) -> Tuple[Diagnostic, ...]:
    """Deduplicate and totally order diagnostics.

    Sort key: code, then source location, then structural context, then
    message — nothing depends on pass registration order or dictionary
    iteration, so the text/JSON/SARIF reports are byte-stable across
    runs and refactorings.
    """
    seen = set()
    out: List[Diagnostic] = []
    for diagnostic in sorted(
        diagnostics,
        key=lambda d: (d.code, _loc_key(d), d.where, d.message),
    ):
        identity = (diagnostic.code, diagnostic.severity,
                    diagnostic.message, diagnostic.where,
                    _loc_key(diagnostic))
        if identity in seen:
            continue
        seen.add(identity)
        out.append(diagnostic)
    return tuple(out)


def analyze(desc: ast.Description, *,
            passes: Optional[Sequence[AnalysisPass]] = None,
            table: Optional[SignatureTable] = None,
            cache=None, fp: Optional[str] = None,
            programs: Optional[Sequence[Tuple]] = None) -> AnalysisResult:
    """Run the semantic stage plus every (selected) pass over *desc*.

    A description with error-severity semantic diagnostics gets only the
    semantic stage — the passes assume a well-formed AST.  A pass that
    raises is reported as an ``ISDL901`` error rather than aborting the
    whole analysis (the gate then rejects the candidate, which is the
    safe direction).  *programs* — ``(name, words, origin)`` decoded
    images — unlocks the whole-program dataflow lints (ISDL601/602
    program level, ISDL605).  The returned diagnostics are deduplicated
    and totally ordered (see :func:`_ordered`).
    """
    selected = ALL_PASSES if passes is None else tuple(passes)
    name = getattr(desc, "name", "<description>")
    with obs.span("analyze.run", desc=name):
        diagnostics: List[Diagnostic] = list(semantics.diagnose(desc))
        ran: List[str] = ["semantic"]
        well_formed = all(
            d.severity is not Severity.ERROR for d in diagnostics
        )
        if well_formed:
            ctx = PassContext(desc, table=table, cache=cache, fp=fp,
                              programs=programs)
            for analysis in selected:
                with obs.span("analyze.pass", analysis=analysis.name):
                    try:
                        diagnostics.extend(analysis.run(ctx))
                    except Exception as exc:  # broad by design — keep linting
                        diagnostics.append(Diagnostic(
                            "ISDL901", Severity.ERROR,
                            f"analysis pass {analysis.name!r} failed:"
                            f" {type(exc).__name__}: {exc}",
                            where=analysis.name,
                        ))
                ran.append(analysis.name)
        ordered = _ordered(diagnostics)
        obs.add("analyze.runs")
        obs.add("analyze.diagnostics", len(ordered))
        return AnalysisResult(name, ordered, tuple(ran))


def check_static(desc: ast.Description, *,
                 cache=None,
                 passes: Optional[Sequence[AnalysisPass]] = None
                 ) -> AnalysisResult:
    """The validity gate: accept or reject *desc*, verdict first.

    The exploration engine and serve admission call this per candidate.
    The semantic stage and the selected passes that can emit an error
    (:attr:`AnalysisPass.emits_errors`) decide.  When they find no
    error, their result is the answer, and its ``passes`` names only the
    stages that ran: the warning-only lints would change nothing about
    an accepted candidate.  When they find one, the answer is the full
    :func:`analyze` run, so a rejection carries exactly the diagnostics
    and ``passes`` that ``repro-lint`` reports.  A warning-only pass
    that would crash (ISDL901) on an accepted candidate therefore goes
    unseen here; the gate fails open, and :func:`analyze` still reports
    the crash.

    With an :class:`~repro.cache.ArtifactCache` attached the answer is
    memoized under ``analysis`` by the structural fingerprint, so warm
    sweeps pay a lookup, and the signature table the passes build is the
    cache's, which the evaluation of an accepted candidate then reuses.
    """
    selected = ALL_PASSES if passes is None else tuple(passes)
    if cache is None:
        return _gate(desc, selected)
    fp = fingerprint(desc)
    return cache.analysis(
        desc, lambda: _gate(desc, selected, cache=cache, fp=fp),
        fp=fp,
    )


def _gate(desc: ast.Description, selected: Sequence[AnalysisPass],
          **context) -> AnalysisResult:
    verdict = analyze(
        desc, passes=[p for p in selected if p.emits_errors], **context
    )
    if verdict.ok():
        return verdict
    return analyze(desc, passes=selected, **context)
