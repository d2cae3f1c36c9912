"""Pretty-printer: render a Description back to ISDL surface syntax.

The exploration loop (:mod:`repro.explore`) transforms descriptions as ASTs;
printing them back to text keeps the methodology's single-description
property — every tool consumes the same ISDL text (paper section 4.1).
The printer round-trips: ``parse(print(parse(s)))`` equals ``parse(s)``.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from . import ast, rtl


def print_description(desc: ast.Description) -> str:
    """Render *desc* as ISDL text."""
    return "\n".join(
        line for _, _, lines in description_units(desc) for line in lines
    ) + "\n"


#: A unit before rendering: ``(kind, key, source, render)``, where
#: ``render(source)`` returns the unit's lines.
UnitSource = Tuple[str, object, object, Callable[[object], List[str]]]

#: Kinds whose lines depend on their *source* AST object alone, so a
#: caller may render each such object once and reuse the lines wherever
#: the object appears (:mod:`repro.isdl.fingerprint` does).
OBJECT_UNIT_KINDS = frozenset(
    ("token", "nonterminal", "storage", "alias", "operation")
)


def description_units(
    desc: ast.Description,
) -> List[Tuple[str, object, List[str]]]:
    """The canonical document broken into per-unit line groups.

    Returns ``(kind, key, lines)`` triples in print order; concatenating
    every group's lines (joined with newlines, plus the trailing one)
    reproduces :func:`print_description` byte for byte.  This is the
    substrate of the fingerprint tree (:mod:`repro.isdl.fingerprint`):
    each storage, token, non-terminal, and operation is its own group, so
    per-unit digests fall out of the same pass that yields the root
    digest.  Kinds: ``header``, ``format``, ``frame`` (constant section
    scaffolding), ``token``, ``nonterminal``, ``storage``, ``alias``,
    ``field`` (the ``field <name>`` opener; key is the field name),
    ``operation`` (key is ``(field, op)``), ``constraints``,
    ``attributes`` (whole sections — they are small and change as one).
    Every group has at least one line.
    """
    return [
        (kind, key, render(source))
        for kind, key, source, render in unit_sources(desc)
    ]


_CLOSE = ("end", "")


def unit_sources(desc: ast.Description) -> List[UnitSource]:
    """:func:`description_units` before rendering, in the same order.

    For the kinds in :data:`OBJECT_UNIT_KINDS` the source is the AST
    object itself (a token, non-terminal, storage, alias or operation);
    a frame's source is its own constant lines.
    """
    units: List[UnitSource] = [
        ("header", None, desc.name, _header_lines),
        ("format", None, desc.word_width, _format_lines),
        ("frame", "global_open", ("section global_definitions",), list),
    ]
    for token in desc.tokens.values():
        units.append(("token", token.name, token, _token_lines))
    for nt in desc.nonterminals.values():
        units.append(("nonterminal", nt.name, nt, _nonterminal_text))
    units.append(("frame", "global_close", _CLOSE, list))
    units.append(("frame", "storage_open", ("section storage",), list))
    for storage in desc.storages.values():
        units.append(("storage", storage.name, storage, _storage_lines))
    for alias in desc.aliases.values():
        units.append(("alias", alias.name, alias, _alias_lines))
    units.append(("frame", "storage_close", _CLOSE, list))
    units.append(
        ("frame", "instruction_open", ("section instruction_set",), list)
    )
    for fld in desc.fields:
        units.append(("field", fld.name, fld.name, _field_lines))
        for op in fld.operations:
            units.append(
                ("operation", (fld.name, op.name), op, operation_lines)
            )
        units.append(("frame", ("field_close", fld.name), ("    end",), list))
    units.append(("frame", "instruction_close", _CLOSE, list))
    if desc.constraints:
        units.append(
            ("constraints", None, desc.constraints, _constraint_section)
        )
    if desc.attributes:
        units.append(("attributes", None, desc.attributes, _optional_section))
    return units


def _header_lines(name: str) -> List[str]:
    return [f'processor "{name}"', ""]


def _format_lines(word_width: int) -> List[str]:
    return ["section format", f"    word {word_width}", "end", ""]


def _field_lines(name: str) -> List[str]:
    return [f"    field {name}"]


def operation_lines(op: ast.Operation) -> List[str]:
    """The canonical lines of one operation definition (indent level 2).

    Position-independent: the fragment depends only on the operation, so
    its digest identifies the definition wherever it appears.
    """
    out = [f"        operation {op.name}({_params_text(op.params)})"]
    out += _parts_text(op, indent=3, default_cost=ast.Costs())
    return out


def _storage_lines(storage: ast.Storage) -> List[str]:
    line = f"    {storage.kind.value} {storage.name} width {storage.width}"
    if storage.depth is not None:
        line += f" depth {storage.depth}"
    return [line]


def _alias_lines(alias: ast.Alias) -> List[str]:
    target = alias.storage
    if alias.index is not None:
        target += f"[{alias.index}]"
    if alias.hi is not None:
        lo = alias.lo if alias.lo is not None else alias.hi
        target += f"[{alias.hi}]" if alias.hi == lo else f"[{alias.hi}:{lo}]"
    return [f"    alias {alias.name} = {target}"]


def _token_lines(token: ast.TokenDef) -> List[str]:
    return ["    " + _token_text(token)]


def _token_text(token: ast.TokenDef) -> str:
    if token.kind is ast.TokenKind.PREFIXED:
        return (
            f'token {token.name} prefix "{token.prefix}"'
            f" range {token.lo} .. {token.hi}"
        )
    if token.kind is ast.TokenKind.IMMEDIATE:
        sign = "signed" if token.signed else "unsigned"
        return f"token {token.name} immediate {sign} width {token.width}"
    body = ", ".join(f"{s} = {v}" for s, v in token.symbols)
    return f"token {token.name} enum {{ {body} }}"


def _nonterminal_text(nt: ast.NonTerminal) -> List[str]:
    out = [f"    nonterminal {nt.name} width {nt.width}"]
    for opt in nt.options:
        out.append(f"        option {opt.label}({_params_text(opt.params)})")
        out += _parts_text(opt, indent=3, default_cost=ast.Costs(cycle=0))
    out.append("    end")
    return out


def _params_text(params) -> str:
    return ", ".join(f"{p.name}: {p.type_name}" for p in params)


def _parts_text(item, indent: int, default_cost: ast.Costs) -> List[str]:
    pad = "    " * indent
    out: List[str] = []
    if item.syntax is not None:
        out.append(f'{pad}syntax "{item.syntax}"')
    out.append(pad + "encoding { " + _encoding_text(item.encoding) + " }")
    if item.action:
        out += _block_text("action", item.action, indent)
    if item.side_effect:
        out += _block_text("side_effect", item.side_effect, indent)
    if item.costs != default_cost:
        costs = item.costs
        out.append(
            f"{pad}cost cycle {costs.cycle} stall {costs.stall}"
            f" size {costs.size}"
        )
    if item.timing != ast.Timing():
        timing = item.timing
        out.append(f"{pad}timing latency {timing.latency} usage {timing.usage}")
    return out


def _encoding_text(encoding) -> str:
    parts = []
    for assign in encoding:
        if assign.hi == assign.lo:
            lhs = f"bits[{assign.hi}]"
        else:
            lhs = f"bits[{assign.hi}:{assign.lo}]"
        rhs = assign.rhs
        if isinstance(rhs, ast.EncConst):
            text = f"0b{rhs.value:0{assign.width}b}"
        else:
            text = rhs.name
            if rhs.hi is not None:
                if rhs.hi == rhs.lo:
                    text += f"[{rhs.hi}]"
                else:
                    text += f"[{rhs.hi}:{rhs.lo}]"
        parts.append(f"{lhs} = {text}")
    return "; ".join(parts)


def _block_text(keyword: str, stmts, indent: int) -> List[str]:
    pad = "    " * indent
    out = [f"{pad}{keyword} {{"]
    for stmt in stmts:
        out.append(rtl.format_stmt(stmt, indent + 1))
    out.append(pad + "}")
    return out


def _constraint_section(constraints) -> List[str]:
    out = ["section constraints"]
    for constraint in constraints:
        out.append("    require " + _cexpr_text(constraint.expr))
    out += ["end", ""]
    return out


def _cexpr_text(expr: ast.CExpr) -> str:
    if isinstance(expr, ast.COpRef):
        return f"{expr.field}.{expr.op}"
    if isinstance(expr, ast.CNot):
        return f"~({_cexpr_text(expr.operand)})"
    if isinstance(expr, ast.CAnd):
        return f"({_cexpr_text(expr.left)} & {_cexpr_text(expr.right)})"
    if isinstance(expr, ast.COr):
        return f"({_cexpr_text(expr.left)} | {_cexpr_text(expr.right)})"
    raise TypeError(f"not a constraint expression: {expr!r}")


def _optional_section(attributes) -> List[str]:
    out = ["section optional"]
    for key, value in attributes.items():
        out.append(f'    attribute {key} "{value}"')
    out += ["end", ""]
    return out
