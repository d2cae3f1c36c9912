"""Recursive-descent parser for ISDL descriptions.

See ``grammar.md`` in this package for the concrete syntax.  The parser
produces a :class:`repro.isdl.ast.Description`.  Binary RTL expressions
parse by precedence climbing over one operator table.  Location expressions
(``RF[r]``, ``ACC[3:0]``) are parsed generically and resolved against the
storage/alias/parameter tables in a post-pass, so section order never
matters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import IsdlSyntaxError, SourceLocation
from . import ast, rtl
from .lexer import Token, tokenize

_STORAGE_KEYWORDS = {kind.value: kind for kind in ast.StorageKind}

#: Binary operator precedence tier, loosest 1 to tightest 10 (C-like).
_BINARY_TIER = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
_UNARY_OPS = ("~", "-", "!")


def parse(source: str, filename: str = "<isdl>") -> ast.Description:
    """Parse ISDL *source* text into a :class:`Description`."""
    with obs.span("isdl.parse", file=filename):
        return _Parser(tokenize(source, filename)).parse_description()


class _RawLoc:
    """An unresolved ``name[...][...]`` location from the surface syntax."""

    __slots__ = ("name", "suffixes", "location")

    def __init__(self, name, suffixes, location):
        self.name = name
        self.suffixes = suffixes  # list of (expr, expr|None) bracket groups
        self.location = location


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Cursor helpers
    # ------------------------------------------------------------------

    # Only an OP token's text can equal an operator (other texts are
    # words, digits, quoted strings or empty), so operator tests compare
    # the text alone.  A matched token is never the EOF token, so the
    # cursor steps past it directly.

    def _peek(self) -> Token:
        # the cursor never passes the final EOF token (see _next)
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _at_id(self, *names: str) -> bool:
        token = self._tokens[self._pos]
        return token.kind == "ID" and token.value in names

    def _at_op(self, op: str) -> bool:
        return self._tokens[self._pos].text == op

    def _accept_id(self, *names: str) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token.kind == "ID" and token.value in names:
            self._pos += 1
            return token
        return None

    def _accept_op(self, op: str) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token.text == op:
            self._pos += 1
            return token
        return None

    def _expect_id(self, *names: str) -> Token:
        token = self._tokens[self._pos]
        if token.kind == "ID" and (not names or token.value in names):
            self._pos += 1
            return token
        expected = " or ".join(repr(n) for n in names) if names else "identifier"
        raise IsdlSyntaxError(
            f"expected {expected}, found {token.text!r}", token.location
        )

    def _expect_op(self, op: str) -> Token:
        token = self._tokens[self._pos]
        if token.text == op:
            self._pos += 1
            return token
        raise IsdlSyntaxError(
            f"expected {op!r}, found {token.text!r}", token.location
        )

    def _expect_int(self) -> int:
        token = self._tokens[self._pos]
        if token.kind != "INT":
            raise IsdlSyntaxError(
                f"expected integer, found {token.text!r}", token.location
            )
        self._pos += 1
        return token.value

    def _expect_string(self) -> str:
        token = self._peek()
        if token.kind != "STRING":
            raise IsdlSyntaxError(
                f"expected string, found {token.text!r}", token.location
            )
        return self._next().value

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_description(self) -> ast.Description:
        self._expect_id("processor")
        name = self._expect_string()
        desc = ast.Description(name=name, word_width=0)
        while not self._peek().kind == "EOF":
            self._parse_section(desc)
        if desc.word_width <= 0:
            raise IsdlSyntaxError(
                "description has no 'section format' defining the word width",
                self._peek().location,
            )
        _resolve_description(desc)
        return desc

    def _parse_section(self, desc: ast.Description) -> None:
        self._expect_id("section")
        name_token = self._expect_id()
        name = name_token.value
        if name == "format":
            self._parse_format(desc)
        elif name == "global_definitions":
            self._parse_global_definitions(desc)
        elif name == "storage":
            self._parse_storage(desc)
        elif name == "instruction_set":
            self._parse_instruction_set(desc)
        elif name == "constraints":
            self._parse_constraints(desc)
        elif name == "optional":
            self._parse_optional(desc)
        else:
            raise IsdlSyntaxError(
                f"unknown section {name!r}", name_token.location
            )
        self._expect_id("end")

    # ------------------------------------------------------------------
    # Sections
    # ------------------------------------------------------------------

    def _parse_format(self, desc: ast.Description) -> None:
        while not self._at_id("end"):
            self._expect_id("word")
            desc.word_width = self._expect_int()

    def _parse_global_definitions(self, desc: ast.Description) -> None:
        while not self._at_id("end"):
            if self._at_id("token"):
                token = self._parse_token_def()
                desc.tokens[token.name] = token
            elif self._at_id("nonterminal"):
                nt = self._parse_nonterminal()
                desc.nonterminals[nt.name] = nt
            else:
                token = self._peek()
                raise IsdlSyntaxError(
                    f"expected 'token' or 'nonterminal', found {token.text!r}",
                    token.location,
                )

    def _parse_token_def(self) -> ast.TokenDef:
        start = self._expect_id("token")
        name = self._expect_id().value
        if self._accept_id("prefix"):
            prefix = self._expect_string()
            self._expect_id("range")
            lo = self._expect_int()
            self._expect_op("..")
            hi = self._expect_int()
            return ast.TokenDef(
                name,
                ast.TokenKind.PREFIXED,
                prefix=prefix,
                lo=lo,
                hi=hi,
                location=start.location,
            )
        if self._accept_id("immediate"):
            sign = self._expect_id("signed", "unsigned").value
            self._expect_id("width")
            width = self._expect_int()
            return ast.TokenDef(
                name,
                ast.TokenKind.IMMEDIATE,
                signed=(sign == "signed"),
                width=width,
                location=start.location,
            )
        if self._accept_id("enum"):
            self._expect_op("{")
            symbols = []
            while True:
                symbol = self._expect_id().value
                self._expect_op("=")
                value = self._expect_int()
                symbols.append((symbol, value))
                if not self._accept_op(","):
                    break
            self._expect_op("}")
            return ast.TokenDef(
                name,
                ast.TokenKind.ENUM,
                symbols=tuple(symbols),
                location=start.location,
            )
        token = self._peek()
        raise IsdlSyntaxError(
            f"expected 'prefix', 'immediate' or 'enum', found {token.text!r}",
            token.location,
        )

    def _parse_nonterminal(self) -> ast.NonTerminal:
        start = self._expect_id("nonterminal")
        name = self._expect_id().value
        self._expect_id("width")
        width = self._expect_int()
        options = []
        while self._at_id("option"):
            options.append(self._parse_nt_option())
        self._expect_id("end")
        if not options:
            raise IsdlSyntaxError(
                f"non-terminal {name!r} has no options", start.location
            )
        return ast.NonTerminal(name, width, tuple(options), start.location)

    def _parse_nt_option(self) -> ast.NtOption:
        start = self._expect_id("option")
        label = self._expect_id().value
        params = self._parse_params()
        parts = self._parse_parts(default_cost=ast.Costs(cycle=0))
        return ast.NtOption(
            label=label,
            params=params,
            syntax=parts["syntax"],
            encoding=parts["encoding"],
            action=parts["action"],
            side_effect=parts["side_effect"],
            costs=parts["costs"],
            timing=parts["timing"],
            location=start.location,
        )

    def _parse_storage(self, desc: ast.Description) -> None:
        while not self._at_id("end"):
            if self._at_id("alias"):
                alias = self._parse_alias()
                desc.aliases[alias.name] = alias
                continue
            token = self._expect_id(*_STORAGE_KEYWORDS)
            kind = _STORAGE_KEYWORDS[token.value]
            name = self._expect_id().value
            self._expect_id("width")
            width = self._expect_int()
            depth = None
            if self._accept_id("depth"):
                depth = self._expect_int()
            if kind in ast.ADDRESSED_KINDS and depth is None:
                raise IsdlSyntaxError(
                    f"storage {name!r} of kind {kind.value} needs a depth",
                    token.location,
                )
            if kind not in ast.ADDRESSED_KINDS and depth is not None:
                raise IsdlSyntaxError(
                    f"storage {name!r} of kind {kind.value} takes no depth",
                    token.location,
                )
            desc.storages[name] = ast.Storage(
                name, kind, width, depth, token.location
            )

    def _parse_alias(self) -> ast.Alias:
        start = self._expect_id("alias")
        name = self._expect_id().value
        self._expect_op("=")
        target = self._expect_id().value
        index = None
        hi = None
        lo = None
        groups = []
        while self._at_op("["):
            groups.append(self._parse_const_bracket())
        if len(groups) == 1:
            first = groups[0]
            if first[1] is None:
                # Disambiguated during resolution: single [n] on addressed
                # storage is an element index, on scalar storage a bit.
                index = first[0]
            else:
                hi, lo = first
        elif len(groups) == 2:
            if groups[0][1] is not None:
                raise IsdlSyntaxError(
                    "alias element index must be a single integer",
                    start.location,
                )
            index = groups[0][0]
            hi, lo = groups[1]
            if lo is None:
                lo = hi
        elif len(groups) > 2:
            raise IsdlSyntaxError("too many suffixes on alias", start.location)
        return ast.Alias(name, target, index, hi, lo, start.location)

    def _parse_const_bracket(self) -> Tuple[int, Optional[int]]:
        self._expect_op("[")
        first = self._expect_int()
        second = None
        if self._accept_op(":"):
            second = self._expect_int()
        self._expect_op("]")
        return first, second

    def _parse_instruction_set(self, desc: ast.Description) -> None:
        while self._at_id("field"):
            start = self._next()
            name = self._expect_id().value
            operations = []
            while self._at_id("operation"):
                operations.append(self._parse_operation())
            self._expect_id("end")
            if not operations:
                raise IsdlSyntaxError(
                    f"field {name!r} has no operations", start.location
                )
            desc.fields.append(
                ast.Field(name, tuple(operations), start.location)
            )
        if not self._at_id("end"):
            token = self._peek()
            raise IsdlSyntaxError(
                f"expected 'field' or 'end', found {token.text!r}",
                token.location,
            )

    def _parse_operation(self) -> ast.Operation:
        start = self._expect_id("operation")
        name = self._expect_id().value
        params = self._parse_params()
        parts = self._parse_parts(default_cost=ast.Costs())
        return ast.Operation(
            name=name,
            params=params,
            syntax=parts["syntax"],
            encoding=parts["encoding"],
            action=parts["action"],
            side_effect=parts["side_effect"],
            costs=parts["costs"],
            timing=parts["timing"],
            location=start.location,
        )

    def _parse_params(self) -> Tuple[ast.Param, ...]:
        self._expect_op("(")
        params = []
        if not self._at_op(")"):
            while True:
                pname = self._expect_id().value
                self._expect_op(":")
                tname = self._expect_id().value
                params.append(ast.Param(pname, tname))
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return tuple(params)

    def _parse_parts(self, default_cost: ast.Costs) -> Dict[str, object]:
        """Parse the six-part body shared by operations and NT options."""
        syntax = None
        if self._accept_id("syntax"):
            syntax = self._expect_string()
        self._expect_id("encoding")
        encoding = self._parse_encoding()
        action: Tuple[rtl.Stmt, ...] = ()
        side_effect: Tuple[rtl.Stmt, ...] = ()
        costs = default_cost
        timing = ast.Timing()
        if self._accept_id("action"):
            action = self._parse_stmt_block()
        if self._accept_id("side_effect"):
            side_effect = self._parse_stmt_block()
        if self._accept_id("cost"):
            costs = self._parse_costs(default_cost)
        if self._accept_id("timing"):
            timing = self._parse_timing()
        return {
            "syntax": syntax,
            "encoding": encoding,
            "action": action,
            "side_effect": side_effect,
            "costs": costs,
            "timing": timing,
        }

    def _parse_costs(self, default: ast.Costs) -> ast.Costs:
        cycle, stall, size = default.cycle, default.stall, default.size
        seen = False
        while self._at_id("cycle", "stall", "size"):
            key = self._next().value
            value = self._expect_int()
            if key == "cycle":
                cycle = value
            elif key == "stall":
                stall = value
            else:
                size = value
            seen = True
        if not seen:
            token = self._peek()
            raise IsdlSyntaxError(
                f"'cost' needs at least one of cycle/stall/size, found"
                f" {token.text!r}",
                token.location,
            )
        return ast.Costs(cycle, stall, size)

    def _parse_timing(self) -> ast.Timing:
        latency, usage = 1, 1
        seen = False
        while self._at_id("latency", "usage"):
            key = self._next().value
            value = self._expect_int()
            if key == "latency":
                latency = value
            else:
                usage = value
            seen = True
        if not seen:
            token = self._peek()
            raise IsdlSyntaxError(
                f"'timing' needs latency and/or usage, found {token.text!r}",
                token.location,
            )
        return ast.Timing(latency, usage)

    def _parse_encoding(self) -> Tuple[ast.BitAssign, ...]:
        self._expect_op("{")
        assigns = []
        while not self._at_op("}"):
            assigns.append(self._parse_bit_assign())
            if not self._accept_op(";"):
                break
        self._expect_op("}")
        return tuple(assigns)

    def _parse_bit_assign(self) -> ast.BitAssign:
        start = self._expect_id("bits")
        self._expect_op("[")
        hi = self._expect_int()
        lo = hi
        if self._accept_op(":"):
            lo = self._expect_int()
        self._expect_op("]")
        if lo > hi:
            raise IsdlSyntaxError(
                f"bit range [{hi}:{lo}] is reversed", start.location
            )
        self._expect_op("=")
        token = self._peek()
        if token.kind == "INT":
            value = self._next().value
            rhs: object = ast.EncConst(value)
        else:
            pname = self._expect_id().value
            phi = plo = None
            if self._at_op("["):
                phi, plo = self._parse_const_bracket()
                if plo is None:
                    plo = phi
            rhs = ast.EncParam(pname, phi, plo)
        return ast.BitAssign(hi, lo, rhs, start.location)

    # ------------------------------------------------------------------
    # RTL statements & expressions
    # ------------------------------------------------------------------

    def _parse_stmt_block(self) -> Tuple[rtl.Stmt, ...]:
        self._expect_op("{")
        stmts = self._parse_stmts_until("}")
        self._expect_op("}")
        return stmts

    def _parse_stmts_until(self, closer: str) -> Tuple[rtl.Stmt, ...]:
        stmts = []
        while not self._at_op(closer):
            stmts.append(self._parse_stmt())
        return tuple(stmts)

    def _parse_stmt(self) -> rtl.Stmt:
        if self._at_id("if"):
            start = self._next()
            cond = self._parse_expr()
            self._expect_op("{")
            then = self._parse_stmts_until("}")
            self._expect_op("}")
            orelse: Tuple[rtl.Stmt, ...] = ()
            if self._accept_id("else"):
                self._expect_op("{")
                orelse = self._parse_stmts_until("}")
                self._expect_op("}")
            return rtl.If(cond, then, orelse, start.location)
        start = self._peek()
        dest = self._parse_lvalue()
        self._expect_op("<-")
        expr = self._parse_expr()
        self._expect_op(";")
        return rtl.Assign(dest, expr, start.location)

    def _parse_lvalue(self):
        if self._accept_op("$$"):
            return rtl.NtLV()
        token = self._expect_id()
        suffixes = self._parse_bracket_suffixes()
        return _RawLoc(token.value, suffixes, token.location)

    def _parse_bracket_suffixes(self):
        suffixes = []
        while self._at_op("["):
            self._next()
            first = self._parse_expr()
            second = None
            if self._accept_op(":"):
                second = self._parse_expr()
            self._expect_op("]")
            suffixes.append((first, second))
        return suffixes

    def _parse_expr(self) -> rtl.Expr:
        cond = self._parse_binary(1)
        if self._accept_op("?"):
            then = self._parse_expr()
            self._expect_op(":")
            other = self._parse_expr()
            return rtl.Cond(cond, then, other)
        return cond

    def _parse_binary(self, min_tier: int) -> rtl.Expr:
        """Precedence climbing: operators of tier >= *min_tier* bind here;
        each right operand takes only tighter tiers, so equal tiers
        associate to the left."""
        left = self._parse_unary()
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            tier = _BINARY_TIER.get(token.text)
            if tier is None or tier < min_tier:
                return left
            self._pos += 1
            left = rtl.BinOp(token.text, left, self._parse_binary(tier + 1))

    def _parse_unary(self) -> rtl.Expr:
        token = self._tokens[self._pos]
        if token.text in _UNARY_OPS:
            self._pos += 1
            return rtl.UnOp(token.text, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> rtl.Expr:
        token = self._peek()
        if token.kind == "INT":
            return rtl.IntLit(self._next().value)
        if self._accept_op("$$"):
            return rtl.NtValue()
        if self._accept_op("("):
            expr = self._parse_expr()
            self._expect_op(")")
            return expr
        if token.kind == "ID":
            self._next()
            if self._at_op("("):
                self._next()
                args = []
                if not self._at_op(")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept_op(","):
                            break
                self._expect_op(")")
                return rtl.Call(token.value, tuple(args))
            suffixes = self._parse_bracket_suffixes()
            return _RawLoc(token.value, suffixes, token.location)
        raise IsdlSyntaxError(
            f"expected expression, found {token.text!r}", token.location
        )

    # ------------------------------------------------------------------
    # Constraints / optional
    # ------------------------------------------------------------------

    def _parse_constraints(self, desc: ast.Description) -> None:
        while self._at_id("forbid", "require"):
            keyword = self._next()
            expr = self._parse_cexpr()
            if keyword.value == "forbid":
                expr = ast.CNot(expr)
            text = f"{keyword.value} ..."
            desc.constraints.append(
                ast.Constraint(expr, text, keyword.location)
            )
        if not self._at_id("end"):
            token = self._peek()
            raise IsdlSyntaxError(
                f"expected 'forbid', 'require' or 'end', found {token.text!r}",
                token.location,
            )

    def _parse_cexpr(self) -> ast.CExpr:
        left = self._parse_cterm()
        while self._accept_op("|"):
            left = ast.COr(left, self._parse_cterm())
        return left

    def _parse_cterm(self) -> ast.CExpr:
        left = self._parse_cfactor()
        while self._accept_op("&"):
            left = ast.CAnd(left, self._parse_cfactor())
        return left

    def _parse_cfactor(self) -> ast.CExpr:
        if self._accept_op("~"):
            return ast.CNot(self._parse_cfactor())
        if self._accept_op("("):
            expr = self._parse_cexpr()
            self._expect_op(")")
            return expr
        field = self._expect_id().value
        self._expect_op(".")
        op = self._expect_id().value
        return ast.COpRef(field, op)

    def _parse_optional(self, desc: ast.Description) -> None:
        while self._at_id("attribute"):
            self._next()
            key = self._expect_id().value
            if self._at_op("="):
                self._next()
            desc.attributes[key] = self._expect_string()


# ---------------------------------------------------------------------------
# Location resolution post-pass
# ---------------------------------------------------------------------------


def _resolve_description(desc: ast.Description) -> None:
    """Rewrite every _RawLoc into ParamRef / StorageRead / StorageLV nodes."""
    for nt_name, nt in list(desc.nonterminals.items()):
        options = tuple(
            _resolve_option(desc, opt) for opt in nt.options
        )
        desc.nonterminals[nt_name] = ast.NonTerminal(
            nt.name, nt.width, options, nt.location
        )
    for i, fld in enumerate(list(desc.fields)):
        operations = tuple(_resolve_operation(desc, op) for op in fld.operations)
        desc.fields[i] = ast.Field(fld.name, operations, fld.location)


def _resolve_option(desc, opt: ast.NtOption) -> ast.NtOption:
    param_names = {p.name for p in opt.params}
    resolver = _LocResolver(desc, param_names)
    return ast.NtOption(
        label=opt.label,
        params=opt.params,
        syntax=opt.syntax,
        encoding=opt.encoding,
        action=resolver.stmts(opt.action),
        side_effect=resolver.stmts(opt.side_effect),
        costs=opt.costs,
        timing=opt.timing,
        location=opt.location,
    )


def _resolve_operation(desc, op: ast.Operation) -> ast.Operation:
    param_names = {p.name for p in op.params}
    resolver = _LocResolver(desc, param_names)
    return ast.Operation(
        name=op.name,
        params=op.params,
        syntax=op.syntax,
        encoding=op.encoding,
        action=resolver.stmts(op.action),
        side_effect=resolver.stmts(op.side_effect),
        costs=op.costs,
        timing=op.timing,
        location=op.location,
    )


class _LocResolver:
    """Resolves raw ``name[...]`` locations given the symbol tables."""

    def __init__(self, desc: ast.Description, param_names):
        self._desc = desc
        self._params = param_names

    def stmts(self, stmts) -> Tuple[rtl.Stmt, ...]:
        return tuple(self._stmt(s) for s in stmts)

    def _stmt(self, stmt: rtl.Stmt) -> rtl.Stmt:
        if isinstance(stmt, rtl.Assign):
            return rtl.Assign(
                self._lvalue(stmt.dest), self._expr(stmt.expr), stmt.location
            )
        if isinstance(stmt, rtl.If):
            return rtl.If(
                self._expr(stmt.cond),
                tuple(self._stmt(s) for s in stmt.then),
                tuple(self._stmt(s) for s in stmt.orelse),
                stmt.location,
            )
        raise TypeError(f"not a statement: {stmt!r}")

    def _lvalue(self, lvalue) -> rtl.LValue:
        if isinstance(lvalue, rtl.NtLV):
            return lvalue
        if isinstance(lvalue, _RawLoc):
            if lvalue.name in self._params and not lvalue.suffixes:
                return rtl.ParamLV(lvalue.name)
            storage, index, hi, lo = self._split_location(lvalue)
            return rtl.StorageLV(storage, index, hi, lo)
        raise TypeError(f"not an l-value: {lvalue!r}")

    def _expr(self, expr) -> rtl.Expr:
        if isinstance(expr, _RawLoc):
            if expr.name in self._params and not expr.suffixes:
                return rtl.ParamRef(expr.name)
            storage, index, hi, lo = self._split_location(expr)
            return rtl.StorageRead(storage, index, hi, lo)
        if isinstance(expr, (rtl.IntLit, rtl.ParamRef, rtl.NtValue)):
            return expr
        if isinstance(expr, rtl.BinOp):
            return rtl.BinOp(expr.op, self._expr(expr.left), self._expr(expr.right))
        if isinstance(expr, rtl.UnOp):
            return rtl.UnOp(expr.op, self._expr(expr.operand))
        if isinstance(expr, rtl.Cond):
            return rtl.Cond(
                self._expr(expr.cond),
                self._expr(expr.then),
                self._expr(expr.other),
            )
        if isinstance(expr, rtl.Call):
            return rtl.Call(expr.func, tuple(self._expr(a) for a in expr.args))
        if isinstance(expr, rtl.StorageRead):
            return expr
        raise TypeError(f"not an expression: {expr!r}")

    def _split_location(self, raw: _RawLoc):
        """Return (storage, index, hi, lo) for a raw location."""
        name = raw.name
        desc = self._desc
        if name in desc.storages:
            addressed = desc.storages[name].addressed
        elif name in desc.aliases:
            addressed = False  # aliases denote scalar slices of state
        else:
            raise IsdlSyntaxError(
                f"unknown name {name!r} (not a parameter, storage or alias)",
                raw.location,
            )
        suffixes = [
            (self._expr(a), self._expr(b) if b is not None else None)
            for a, b in raw.suffixes
        ]
        index = None
        bitrange = None
        if addressed:
            if not suffixes:
                raise IsdlSyntaxError(
                    f"addressed storage {name!r} needs an element index",
                    raw.location,
                )
            first = suffixes.pop(0)
            if first[1] is not None:
                raise IsdlSyntaxError(
                    f"element index of {name!r} cannot be a range",
                    raw.location,
                )
            index = first[0]
        if suffixes:
            group = suffixes.pop(0)
            bitrange = self._const_range(group, raw.location)
        if suffixes:
            raise IsdlSyntaxError(
                f"too many suffixes on {name!r}", raw.location
            )
        hi, lo = bitrange if bitrange is not None else (None, None)
        return name, index, hi, lo

    @staticmethod
    def _const_range(group, location) -> Tuple[int, int]:
        first, second = group
        if not isinstance(first, rtl.IntLit) or (
            second is not None and not isinstance(second, rtl.IntLit)
        ):
            raise IsdlSyntaxError(
                "bit ranges must be integer constants", location
            )
        hi = first.value
        lo = second.value if second is not None else hi
        if lo > hi:
            raise IsdlSyntaxError(f"bit range [{hi}:{lo}] is reversed", location)
        return hi, lo
