"""Semantic analysis for ISDL descriptions.

:func:`diagnose` validates a parsed :class:`~repro.isdl.ast.Description`
and returns every problem as a structured
:class:`~repro.analyze.diagnostics.Diagnostic` (stable codes, severities,
source spans) — the shape the :mod:`repro.analyze` engine and
``repro-lint`` build on.  :func:`check` is the same analysis raising
:class:`~repro.errors.IsdlSemanticError` on the first finding.

The most important check is the paper's **Axiom 1** (section 3.3.2): every
bit of an operation signature is a function of at most one parameter.  Our
encoding AST makes each *assignment* single-parameter by construction, so the
axiom reduces to "no instruction bit is assigned twice", which is checked
here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..analyze.diagnostics import Diagnostic, Severity
from ..errors import IsdlSemanticError
from . import ast, rtl
from .intrinsics import INTRINSICS

#: Codes for the well-formedness range (``ISDL0xx``); checks not listed
#: here report the generic :data:`CODE_SEMANTIC`.
CODE_SEMANTIC = "ISDL010"
CODE_AXIOM1 = "ISDL011"
CODE_NOT_REVERSIBLE = "ISDL012"
CODE_CROSS_FIELD_BITS = "ISDL013"
#: Constraint references to unknown operations live in the constraint
#: range and are only a warning — an exploration transform that drops an
#: operation may leave a dangling reference that can never forbid
#: anything, which is untidy rather than fatal.
CODE_CONSTRAINT_UNKNOWN_REF = "ISDL201"


def check(desc: ast.Description) -> None:
    """Validate *desc*; raise :class:`IsdlSemanticError` on its first finding.

    This is the check a description gets where it enters the system
    (:func:`~repro.isdl.load_string`, transform preconditions), so every
    finding is fatal here, warnings included.  The exploration gate
    instead runs :func:`diagnose` through :mod:`repro.analyze`, where only
    errors reject a candidate.
    """
    with obs.span("isdl.check", desc=desc.name):
        diagnostics = diagnose(desc)
    if diagnostics:
        raise IsdlSemanticError(diagnostics[0].legacy_text())


def diagnose(desc: ast.Description) -> List[Diagnostic]:
    """Run all semantic checks, returning every problem as a Diagnostic.

    This never raises on description problems: it is the well-formedness
    stage of the :mod:`repro.analyze` pass pipeline, where an unknown
    constraint reference is a warning (:data:`CODE_CONSTRAINT_UNKNOWN_REF`)
    and everything else an error.
    """
    with obs.span("isdl.diagnose", desc=desc.name):
        checker = _Checker(desc)
        checker.run()
        return checker.diagnostics


def alias_width(desc: ast.Description, alias: ast.Alias) -> int:
    """The bit width of the state slice an alias denotes."""
    storage = desc.storages[alias.storage]
    if alias.hi is not None:
        lo = alias.lo if alias.lo is not None else alias.hi
        return alias.hi - lo + 1
    return storage.width


def location_width(desc: ast.Description, name: str,
                   hi: Optional[int], lo: Optional[int]) -> int:
    """The width of a storage/alias location with optional bit range."""
    if hi is not None:
        return hi - (lo if lo is not None else hi) + 1
    if name in desc.aliases:
        return alias_width(desc, desc.aliases[name])
    return desc.storages[name].width


class _Checker:
    def __init__(self, desc: ast.Description):
        self.desc = desc
        self.diagnostics: List[Diagnostic] = []

    def fail(self, message: str, location=None, *,
             code: str = CODE_SEMANTIC,
             severity: Severity = Severity.ERROR,
             where: str = "") -> None:
        self.diagnostics.append(Diagnostic(code, severity, message,
                                           where=where, location=location))

    # ------------------------------------------------------------------

    def run(self) -> None:
        self.check_storages()
        self.check_aliases()
        self.check_tokens()
        self.check_nonterminals()
        self.check_fields()
        self.check_constraints()
        self.check_cross_field_encoding()

    # ------------------------------------------------------------------

    def check_storages(self) -> None:
        pcs = ims = 0
        for storage in self.desc.storages.values():
            if storage.width <= 0:
                self.fail(
                    f"storage {storage.name!r} has non-positive width",
                    storage.location,
                )
            if storage.addressed and (storage.depth is None or storage.depth <= 0):
                self.fail(
                    f"storage {storage.name!r} has non-positive depth",
                    storage.location,
                )
            if storage.kind is ast.StorageKind.PROGRAM_COUNTER:
                pcs += 1
            if storage.kind is ast.StorageKind.INSTRUCTION_MEMORY:
                ims += 1
        if pcs != 1:
            self.fail(f"description needs exactly one program counter, found {pcs}")
        if ims != 1:
            self.fail(
                f"description needs exactly one instruction memory, found {ims}"
            )

    def check_aliases(self) -> None:
        for alias in self.desc.aliases.values():
            if alias.name in self.desc.storages:
                self.fail(
                    f"alias {alias.name!r} shadows a storage name",
                    alias.location,
                )
                continue
            storage = self.desc.storages.get(alias.storage)
            if storage is None:
                self.fail(
                    f"alias {alias.name!r} targets unknown storage"
                    f" {alias.storage!r}",
                    alias.location,
                )
                continue
            if storage.addressed:
                if alias.index is None:
                    self.fail(
                        f"alias {alias.name!r} of addressed storage"
                        f" {storage.name!r} needs an element index",
                        alias.location,
                    )
                elif not 0 <= alias.index < storage.depth:
                    self.fail(
                        f"alias {alias.name!r} index {alias.index} outside"
                        f" depth {storage.depth}",
                        alias.location,
                    )
            elif alias.index is not None:
                # A single [n] suffix on scalar storage is a bit select.
                alias_bit = alias.index
                if not 0 <= alias_bit < storage.width:
                    self.fail(
                        f"alias {alias.name!r} bit {alias_bit} outside width"
                        f" {storage.width}",
                        alias.location,
                    )
            if alias.hi is not None:
                lo = alias.lo if alias.lo is not None else alias.hi
                if not 0 <= lo <= alias.hi < storage.width:
                    self.fail(
                        f"alias {alias.name!r} range [{alias.hi}:{lo}] outside"
                        f" width {storage.width}",
                        alias.location,
                    )

    def check_tokens(self) -> None:
        for token in self.desc.tokens.values():
            if token.name in self.desc.nonterminals:
                self.fail(
                    f"token {token.name!r} collides with a non-terminal",
                    token.location,
                )
            if token.kind is ast.TokenKind.PREFIXED:
                if token.lo > token.hi:
                    self.fail(
                        f"token {token.name!r} has reversed range"
                        f" {token.lo}..{token.hi}",
                        token.location,
                    )
                if not token.prefix:
                    self.fail(
                        f"token {token.name!r} has an empty prefix",
                        token.location,
                    )
            elif token.kind is ast.TokenKind.IMMEDIATE:
                if token.width <= 0:
                    self.fail(
                        f"immediate token {token.name!r} has non-positive"
                        " width",
                        token.location,
                    )
            else:
                symbols = [s for s, _ in token.symbols]
                if len(symbols) != len(set(symbols)):
                    self.fail(
                        f"enum token {token.name!r} has duplicate symbols",
                        token.location,
                    )
                values = [v for _, v in token.symbols]
                if len(values) != len(set(values)):
                    self.fail(
                        f"enum token {token.name!r} has duplicate values",
                        token.location,
                    )

    # ------------------------------------------------------------------

    def check_nonterminals(self) -> None:
        for nt in self.desc.nonterminals.values():
            if nt.width <= 0:
                self.fail(
                    f"non-terminal {nt.name!r} has non-positive width",
                    nt.location,
                )
            labels = [opt.label for opt in nt.options]
            if len(labels) != len(set(labels)):
                self.fail(
                    f"non-terminal {nt.name!r} has duplicate option labels",
                    nt.location,
                )
            for opt in nt.options:
                where = f"{nt.name}.{opt.label}"
                self.check_params(opt.params, where, opt.location,
                                  allow_nonterminal=False)
                self.check_encoding(
                    opt.encoding, opt.params, nt.width, where, opt.location
                )
                self.check_rtl(opt.action, opt.params, where, in_nt=True)
                self.check_rtl(opt.side_effect, opt.params, where, in_nt=True)

    def check_fields(self) -> None:
        names = [fld.name for fld in self.desc.fields]
        if len(names) != len(set(names)):
            self.fail("duplicate field names in instruction set")
        if not self.desc.fields:
            self.fail("instruction set defines no fields")
        for fld in self.desc.fields:
            op_names = fld.operation_names
            if len(op_names) != len(set(op_names)):
                self.fail(
                    f"field {fld.name!r} has duplicate operation names",
                    fld.location,
                )
            for op in fld.operations:
                where = f"{fld.name}.{op.name}"
                self.check_params(op.params, where, op.location,
                                  allow_nonterminal=True)
                self.check_encoding(
                    op.encoding,
                    op.params,
                    self.desc.word_width,
                    where,
                    op.location,
                )
                self.check_rtl(op.action, op.params, where, in_nt=False)
                self.check_rtl(op.side_effect, op.params, where, in_nt=False)
                self.check_costs(op, where)

    def check_params(self, params, where, location, allow_nonterminal) -> None:
        names = [p.name for p in params]
        if len(names) != len(set(names)):
            self.fail(f"{where}: duplicate parameter names", location)
        for param in params:
            if param.type_name in self.desc.tokens:
                continue
            if param.type_name in self.desc.nonterminals:
                if not allow_nonterminal:
                    self.fail(
                        f"{where}: non-terminal options may not take"
                        f" non-terminal parameters ({param.name})",
                        location,
                    )
                continue
            self.fail(
                f"{where}: parameter {param.name!r} has unknown type"
                f" {param.type_name!r}",
                location,
            )

    def check_costs(self, op: ast.Operation, where: str) -> None:
        costs, timing = op.costs, op.timing
        if costs.cycle < 0 or costs.stall < 0 or costs.size < 1:
            self.fail(f"{where}: invalid costs {costs}", op.location)
        if timing.latency < 1 or timing.usage < 1:
            self.fail(f"{where}: invalid timing {timing}", op.location)

    # ------------------------------------------------------------------

    def check_encoding(self, encoding, params, width, where, location) -> None:
        param_types = {}
        for param in params:
            try:
                param_types[param.name] = self.desc.param_type(param)
            except IsdlSemanticError:
                param_types[param.name] = None
        assigned: Set[int] = set()
        covered: Dict[str, Set[int]] = {p.name: set() for p in params}
        for assign in encoding:
            if assign.hi >= width or assign.lo < 0:
                self.fail(
                    f"{where}: encoding bits [{assign.hi}:{assign.lo}] outside"
                    f" word width {width}",
                    assign.location,
                )
                continue
            bits = set(range(assign.lo, assign.hi + 1))
            overlap = assigned & bits
            if overlap:
                # Axiom 1 enforcement: one writer per instruction bit.
                self.fail(
                    f"{where}: instruction bits {sorted(overlap)} assigned"
                    " more than once (violates Axiom 1)",
                    assign.location,
                    code=CODE_AXIOM1,
                )
            assigned |= bits
            rhs = assign.rhs
            if isinstance(rhs, ast.EncConst):
                if rhs.value >= (1 << assign.width) or rhs.value < 0:
                    self.fail(
                        f"{where}: constant {rhs.value} does not fit in"
                        f" {assign.width} bits",
                        assign.location,
                    )
            elif isinstance(rhs, ast.EncParam):
                if rhs.name not in covered:
                    self.fail(
                        f"{where}: encoding references unknown parameter"
                        f" {rhs.name!r}",
                        assign.location,
                    )
                    continue
                ptype = param_types.get(rhs.name)
                value_width = self._value_width(ptype)
                hi = rhs.hi if rhs.hi is not None else value_width - 1
                lo = rhs.lo if rhs.lo is not None else 0
                if lo < 0 or hi >= value_width:
                    self.fail(
                        f"{where}: parameter slice {rhs.name}[{hi}:{lo}]"
                        f" outside value width {value_width}",
                        assign.location,
                    )
                    continue
                if hi - lo + 1 != assign.width:
                    self.fail(
                        f"{where}: bit range [{assign.hi}:{assign.lo}] and"
                        f" parameter slice {rhs.name}[{hi}:{lo}] have"
                        " different widths",
                        assign.location,
                    )
                param_bits = set(range(lo, hi + 1))
                double = covered[rhs.name] & param_bits
                if double:
                    self.fail(
                        f"{where}: parameter bits {rhs.name}{sorted(double)}"
                        " encoded more than once",
                        assign.location,
                    )
                covered[rhs.name] |= param_bits
        for param in params:
            value_width = self._value_width(param_types.get(param.name))
            missing = set(range(value_width)) - covered[param.name]
            if missing:
                self.fail(
                    f"{where}: parameter {param.name!r} bits"
                    f" {sorted(missing)} never encoded — the encoding is not"
                    " reversible",
                    location,
                    code=CODE_NOT_REVERSIBLE,
                )

    def _value_width(self, ptype) -> int:
        if isinstance(ptype, ast.TokenDef):
            return ptype.value_width
        if isinstance(ptype, ast.NonTerminal):
            return ptype.width
        return 1  # unknown type already reported; keep going

    # ------------------------------------------------------------------

    def check_rtl(self, stmts, params, where, in_nt: bool) -> None:
        param_map = {p.name: p for p in params}
        for stmt in rtl.walk_stmts(stmts):
            if isinstance(stmt, rtl.Assign):
                self.check_lvalue(stmt.dest, param_map, where, in_nt,
                                  stmt.location)
                self.check_expr(stmt.expr, param_map, where, in_nt,
                                stmt.location)
                if isinstance(stmt.dest, rtl.StorageLV) and stmt.dest.index is not None:
                    self.check_expr(stmt.dest.index, param_map, where, in_nt,
                                    stmt.location)
            elif isinstance(stmt, rtl.If):
                self.check_expr(stmt.cond, param_map, where, in_nt,
                                stmt.location)

    def check_lvalue(self, lvalue, param_map, where, in_nt, location) -> None:
        if isinstance(lvalue, rtl.NtLV):
            if not in_nt:
                self.fail(f"{where}: '$$' outside a non-terminal", location)
            return
        if isinstance(lvalue, rtl.ParamLV):
            param = param_map.get(lvalue.name)
            if param is None:
                self.fail(
                    f"{where}: unknown parameter {lvalue.name!r} as"
                    " destination",
                    location,
                )
                return
            nt = self.desc.nonterminals.get(param.type_name)
            if nt is None:
                self.fail(
                    f"{where}: parameter {lvalue.name!r} used as destination"
                    " is not a non-terminal",
                    location,
                )
                return
            opaque = [
                opt.label for opt in nt.options if opt.storage_target() is None
            ]
            if opaque:
                self.fail(
                    f"{where}: non-terminal {nt.name!r} used as destination"
                    f" but options {opaque} are not transparent"
                    " ('$$ <- location')",
                    location,
                )
            return
        if isinstance(lvalue, rtl.StorageLV):
            self.check_location(
                lvalue.storage, lvalue.index, lvalue.hi, lvalue.lo, where,
                location, writing=True,
            )
            return
        self.fail(f"{where}: invalid assignment destination", location)

    def check_expr(self, expr, param_map, where, in_nt, location) -> None:
        for node in rtl.walk_exprs(expr):
            if isinstance(node, rtl.ParamRef):
                if node.name not in param_map:
                    self.fail(
                        f"{where}: unknown parameter {node.name!r}", location
                    )
            elif isinstance(node, rtl.NtValue):
                if not in_nt:
                    self.fail(f"{where}: '$$' outside a non-terminal", location)
            elif isinstance(node, rtl.StorageRead):
                self.check_location(
                    node.storage, node.index, node.hi, node.lo, where,
                    location, writing=False,
                )
            elif isinstance(node, rtl.Call):
                intrinsic = INTRINSICS.get(node.func)
                if intrinsic is None:
                    self.fail(
                        f"{where}: unknown intrinsic {node.func!r}", location
                    )
                elif len(node.args) != intrinsic.arity:
                    self.fail(
                        f"{where}: intrinsic {node.func} takes"
                        f" {intrinsic.arity} arguments, got {len(node.args)}",
                        location,
                    )

    def check_location(self, name, index, hi, lo, where, location,
                       writing) -> None:
        storage = self.desc.storages.get(name)
        alias = self.desc.aliases.get(name)
        if storage is None and alias is None:
            self.fail(f"{where}: unknown storage {name!r}", location)
            return
        if storage is not None:
            if storage.addressed and index is None:
                self.fail(
                    f"{where}: addressed storage {name!r} accessed without"
                    " an index",
                    location,
                )
            if not storage.addressed and index is not None:
                self.fail(
                    f"{where}: scalar storage {name!r} accessed with an"
                    " index",
                    location,
                )
            width = storage.width
        else:
            if index is not None:
                self.fail(
                    f"{where}: alias {name!r} accessed with an index",
                    location,
                )
            if alias.storage not in self.desc.storages:
                return  # the dangling alias itself is already reported
            width = alias_width(self.desc, alias)
        if hi is not None:
            effective_lo = lo if lo is not None else hi
            if not 0 <= effective_lo <= hi < width:
                self.fail(
                    f"{where}: bit range [{hi}:{effective_lo}] outside"
                    f" width {width} of {name!r}",
                    location,
                )

    # ------------------------------------------------------------------

    def check_constraints(self) -> None:
        known = {
            (fld.name, op.name) for fld, op in self.desc.operations()
        }
        for constraint in self.desc.constraints:
            for ref in ast.oprefs_in(constraint.expr):
                if (ref.field, ref.op) not in known:
                    self.fail(
                        f"constraint references unknown operation"
                        f" {ref.field}.{ref.op}",
                        constraint.location,
                        code=CODE_CONSTRAINT_UNKNOWN_REF,
                        severity=Severity.WARNING,
                    )

    def check_cross_field_encoding(self) -> None:
        """Operations in different fields must occupy disjoint word bits,
        unless a constraint already forbids their co-occurrence."""
        defined: List[Tuple[str, str, Set[int]]] = []
        for fld, op in self.desc.operations():
            bits: Set[int] = set()
            for assign in op.encoding:
                bits |= set(range(assign.lo, assign.hi + 1))
            defined.append((fld.name, op.name, bits))
        for i, (field_a, op_a, bits_a) in enumerate(defined):
            for field_b, op_b, bits_b in defined[i + 1 :]:
                if field_a == field_b:
                    continue
                overlap = bits_a & bits_b
                if not overlap:
                    continue
                selected = {field_a: op_a, field_b: op_b}
                if not self.desc.instruction_valid(selected):
                    continue  # a constraint excludes the combination
                self.fail(
                    f"operations {field_a}.{op_a} and {field_b}.{op_b} in"
                    f" different fields share instruction bits"
                    f" {sorted(overlap)} and no constraint forbids their"
                    " combination",
                    code=CODE_CROSS_FIELD_BITS,
                )
