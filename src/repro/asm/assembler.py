"""The retargetable assembler (paper Fig. 1 and ref [3]).

The assembler is generated from the machine description: operation syntax
templates define the surface language, the bitfield assignments define the
assembly function.  Nothing here is architecture-specific.

Source format
-------------
* one instruction per line; VLIW operations separated by ``|``;
* ``;`` starts a comment;
* ``label:`` defines a label (optionally followed by an instruction);
* directives: ``.org ADDR`` sets the location counter, ``.equ NAME VALUE``
  defines a symbol;
* immediate operands are expressions over integers, labels, ``.`` (the
  current instruction address), ``+`` and ``-`` — so a PC-relative branch is
  written ``beq loop - .``.

Assembly is two-pass: pass 1 matches every line against the operation
templates and assigns addresses; pass 2 resolves symbols, range-checks token
values, validates the ISDL constraints for every VLIW combination, and runs
the assembly function.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..encoding.signature import Operand, SignatureTable
from ..errors import (
    AssemblerError,
    ConstraintViolation,
    EncodingError,
    SourceLocation,
)
from ..isdl import ast

# ---------------------------------------------------------------------------
# Assembly-line lexing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<int>0[xX][0-9a-fA-F_]+|0[bB][01_]+|\d[\d_]*)
  | (?P<punct>[.,()#+\-|:\[\]@*])
    """,
    re.VERBOSE,
)


def _lex_line(text: str, location: SourceLocation) -> List[Tuple[str, str]]:
    """Tokenize one assembly line into (kind, text) pairs."""
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise AssemblerError(
                f"unexpected character {text[pos]!r}", location
            )
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup
        tokens.append((kind, match.group()))
    return tokens


def _parse_int(text: str) -> int:
    text = text.replace("_", "")
    if text.lower().startswith("0x"):
        return int(text, 16)
    if text.lower().startswith("0b"):
        return int(text, 2)
    return int(text, 10)


# ---------------------------------------------------------------------------
# Deferred immediate expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImmExpr:
    """``±term ± term ...`` over ints, labels and ``.`` (here-address)."""

    terms: Tuple[Tuple[int, object], ...]  # (sign, int | str | ".")

    def evaluate(self, symbols: Dict[str, int], here: int,
                 location: SourceLocation) -> int:
        total = 0
        for sign, term in self.terms:
            if isinstance(term, int):
                value = term
            elif term == ".":
                value = here
            else:
                if term not in symbols:
                    raise AssemblerError(
                        f"undefined symbol {term!r}", location
                    )
                value = symbols[term]
            total += sign * value
        return total


# ---------------------------------------------------------------------------
# Template compilation
# ---------------------------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"%([A-Za-z_][A-Za-z_0-9]*)")


def _compile_template(template: str, params: Sequence[ast.Param],
                      where: str) -> List[object]:
    """Split a syntax template into literal tokens and Param slots."""
    by_name = {p.name: p for p in params}
    items: List[object] = []
    pos = 0
    dummy = SourceLocation("<template>", 1, 1)
    for match in _PLACEHOLDER_RE.finditer(template):
        literal = template[pos : match.start()]
        items.extend(("lit", t) for _, t in _lex_line(literal, dummy))
        name = match.group(1)
        if name not in by_name:
            raise AssemblerError(
                f"{where}: syntax template references unknown parameter"
                f" %{name}"
            )
        items.append(by_name[name])
        pos = match.end()
    items.extend(
        ("lit", t) for _, t in _lex_line(template[pos:], dummy)
    )
    return items


# ---------------------------------------------------------------------------
# Assembler
# ---------------------------------------------------------------------------


@dataclass
class AssembledProgram:
    """Assembler output: raw words plus the symbol table and a listing."""

    words: List[int]
    origin: int
    symbols: Dict[str, int]
    listing: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.words)


@dataclass
class _Line:
    """A pass-1 instruction: matched operations with unresolved operands."""

    address: int
    size: int
    location: SourceLocation
    text: str
    # (field_name, op_name, {param: raw operand}) per VLIW part
    parts: List[Tuple[str, str, Dict[str, object]]] = field(
        default_factory=list
    )


class Assembler:
    """A retargetable assembler bound to one machine description."""

    def __init__(self, desc: ast.Description,
                 table: Optional[SignatureTable] = None):
        self.desc = desc
        self.table = table or SignatureTable(desc)
        self._op_templates: List[Tuple[str, ast.Operation, List[object]]] = []
        self._nt_templates: Dict[str, List[Tuple[ast.NtOption, List[object]]]] = {}
        with obs.span("asm.templates"):
            self._compile_templates(desc)

    def _compile_templates(self, desc: ast.Description) -> None:
        for fld in desc.fields:
            for op in fld.operations:
                template = op.syntax or ast.default_syntax(op.name, op.params)
                items = _compile_template(
                    template, op.params, f"{fld.name}.{op.name}"
                )
                self._op_templates.append((fld.name, op, items))
        for nt in desc.nonterminals.values():
            entries = []
            for option in nt.options:
                template = option.syntax or ", ".join(
                    f"%{p.name}" for p in option.params
                )
                entries.append(
                    (
                        option,
                        _compile_template(
                            template, option.params, f"{nt.name}.{option.label}"
                        ),
                    )
                )
            self._nt_templates[nt.name] = entries

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def assemble(self, source: str, filename: str = "<asm>") -> AssembledProgram:
        with obs.span("asm.assemble", file=filename):
            lines, symbols, origin, top = self._pass1(source, filename)
            return self._pass2(lines, symbols, origin, top)

    def assemble_file(self, path: str) -> AssembledProgram:
        with open(path, "r", encoding="utf-8") as handle:
            return self.assemble(handle.read(), filename=path)

    # ------------------------------------------------------------------
    # Pass 1 — parse, match templates, lay out addresses
    # ------------------------------------------------------------------

    def _pass1(self, source, filename):
        symbols: Dict[str, int] = {}
        lines: List[_Line] = []
        address = 0
        origin: Optional[int] = None
        top = 0
        for lineno, raw in enumerate(source.splitlines(), start=1):
            location = SourceLocation(filename, lineno, 1)
            text = raw.split(";", 1)[0].strip()
            if not text:
                continue
            tokens = _lex_line(text, location)
            # Labels (possibly several) at line start.
            while (
                len(tokens) >= 2
                and tokens[0][0] == "id"
                and tokens[1] == ("punct", ":")
            ):
                label = tokens[0][1]
                if label in symbols:
                    raise AssemblerError(
                        f"duplicate label {label!r}", location
                    )
                symbols[label] = address
                tokens = tokens[2:]
            if not tokens:
                continue
            if tokens[0] == ("punct", "."):
                address, origin = self._directive(
                    tokens, symbols, address, origin, location
                )
                top = max(top, address)
                continue
            if origin is None:
                origin = address
            line = self._match_instruction(tokens, address, location, text)
            lines.append(line)
            address += line.size
            top = max(top, address)
        if origin is None:
            origin = 0
        return lines, symbols, origin, top

    def _directive(self, tokens, symbols, address, origin, location):
        if len(tokens) < 2 or tokens[1][0] != "id":
            raise AssemblerError("malformed directive", location)
        name = tokens[1][1]
        rest = tokens[2:]
        if name == "org":
            if len(rest) != 1 or rest[0][0] != "int":
                raise AssemblerError(".org needs one integer", location)
            new_address = _parse_int(rest[0][1])
            if origin is None:
                origin = new_address
            return new_address, origin
        if name == "equ":
            if (
                len(rest) != 2
                or rest[0][0] != "id"
                or rest[1][0] != "int"
            ):
                raise AssemblerError(".equ needs NAME VALUE", location)
            symbols[rest[0][1]] = _parse_int(rest[1][1])
            return address, origin
        raise AssemblerError(f"unknown directive .{name}", location)

    def _match_instruction(self, tokens, address, location, text) -> _Line:
        parts_tokens = self._split_parts(tokens)
        line = _Line(address, 1, location, text)
        used_fields = set()
        for part in parts_tokens:
            matched = self._match_part(part, used_fields, location)
            field_name, op, operands = matched
            used_fields.add(field_name)
            line.parts.append((field_name, op.name, operands))
            line.size = max(line.size, op.costs.size)
        return line

    @staticmethod
    def _split_parts(tokens):
        parts: List[List[Tuple[str, str]]] = [[]]
        for token in tokens:
            if token == ("punct", "|"):
                parts.append([])
            else:
                parts[-1].append(token)
        return parts

    def _match_part(self, tokens, used_fields, location):
        failures = []
        for field_name, op, items in self._op_templates:
            if field_name in used_fields:
                continue
            operands: Dict[str, object] = {}
            pos = self._match_items(tokens, 0, items, operands, location)
            if pos is not None and pos == len(tokens):
                return field_name, op, operands
            if pos is not None:
                failures.append(f"{field_name}.{op.name}: trailing operands")
        raise AssemblerError(
            "no operation matches "
            + " ".join(t for _, t in tokens)
            + (f" ({'; '.join(failures)})" if failures else ""),
            location,
        )

    def _match_items(self, tokens, pos, items, operands, location,
                     item_index: int = 0):
        """Match template items against tokens with backtracking.

        Non-terminal options and immediate expressions can match the same
        prefix in several ways (``(X)`` vs ``(X)+``; ``a + b`` as one
        expression or split around a literal ``+``), so every alternative
        is tried until the rest of the template also matches.  Returns the
        end position or None.
        """
        if item_index == len(items):
            return pos
        item = items[item_index]
        if isinstance(item, tuple):  # literal
            if pos >= len(tokens) or not self._literal_matches(
                tokens[pos], item[1]
            ):
                return None
            return self._match_items(
                tokens, pos + 1, items, operands, location, item_index + 1
            )
        for end, value in self._operand_candidates(tokens, pos, item, location):
            operands[item.name] = value
            result = self._match_items(
                tokens, end, items, operands, location, item_index + 1
            )
            if result is not None:
                return result
            operands.pop(item.name, None)
        return None

    @staticmethod
    def _literal_matches(token, literal_text) -> bool:
        kind, text = token
        if kind == "id":
            return text.lower() == literal_text.lower()
        return text == literal_text

    # ------------------------------------------------------------------
    # Operand matching
    # ------------------------------------------------------------------

    def _operand_candidates(self, tokens, pos, param: ast.Param, location):
        """Yield every (end, value) way to read one operand at *pos*."""
        ptype = self.desc.param_type(param)
        if isinstance(ptype, ast.TokenDef):
            if ptype.kind is ast.TokenKind.IMMEDIATE:
                yield from self._imm_candidates(tokens, pos)
                return
            result = self._match_token_operand(tokens, pos, ptype, location)
            if result is not None:
                yield result
            return
        # Non-terminal: each option that matches is a candidate.  Longer
        # matches first so greedy modes like ``(X)+`` beat ``(X)``.
        matches = []
        for option, items in self._nt_templates[ptype.name]:
            sub_operands: Dict[str, object] = {}
            end = self._match_items(tokens, pos, items, sub_operands, location)
            if end is not None:
                matches.append((end, (option.label, sub_operands)))
        matches.sort(key=lambda pair: -pair[0])
        yield from matches

    def _match_token_operand(self, tokens, pos, token_def, location):
        if token_def.kind is ast.TokenKind.PREFIXED:
            if pos >= len(tokens) or tokens[pos][0] != "id":
                return None
            text = tokens[pos][1]
            prefix = token_def.prefix
            if not text.lower().startswith(prefix.lower()):
                return None
            suffix = text[len(prefix) :]
            if not suffix.isdigit():
                return None
            value = int(suffix)
            if not token_def.lo <= value <= token_def.hi:
                return None
            return pos + 1, value
        if token_def.kind is ast.TokenKind.ENUM:
            if pos >= len(tokens) or tokens[pos][0] != "id":
                return None
            for symbol, value in token_def.symbols:
                if tokens[pos][1].lower() == symbol.lower():
                    return pos + 1, value
            return None
        return None  # immediates are handled by _imm_candidates

    def _imm_candidates(self, tokens, pos):
        """Yield (end, ImmExpr) candidates, longest expression first."""
        terms: List[Tuple[int, int, object]] = []  # (end, sign, term)
        sign = 1
        start = pos
        if pos < len(tokens) and tokens[pos] in (("punct", "-"), ("punct", "+")):
            sign = -1 if tokens[pos][1] == "-" else 1
            start = pos + 1
        term = self._match_imm_term(tokens, start)
        if term is None:
            return
        end, value = term
        terms.append((end, sign, value))
        while end < len(tokens) and tokens[end] in (
            ("punct", "+"),
            ("punct", "-"),
        ):
            sign = 1 if tokens[end][1] == "+" else -1
            term = self._match_imm_term(tokens, end + 1)
            if term is None:
                break  # the +/- belongs to surrounding syntax
            end, value = term
            terms.append((end, sign, value))
        # Longest-first: each prefix of the term list is a valid expression.
        for count in range(len(terms), 0, -1):
            expr = ImmExpr(tuple((s, v) for _, s, v in terms[:count]))
            yield terms[count - 1][0], expr

    @staticmethod
    def _match_imm_term(tokens, pos):
        if pos >= len(tokens):
            return None
        kind, text = tokens[pos]
        if kind == "int":
            return pos + 1, _parse_int(text)
        if kind == "id":
            return pos + 1, text
        if (kind, text) == ("punct", "."):
            return pos + 1, "."
        return None

    # ------------------------------------------------------------------
    # Pass 2 — resolve, validate constraints, encode
    # ------------------------------------------------------------------

    def _pass2(self, lines, symbols, origin, top) -> AssembledProgram:
        length = top - origin
        words = [0] * length
        listing: List[str] = []
        for line in lines:
            selection = {fname: opname for fname, opname, _ in line.parts}
            violated = self.desc.violated_constraints(selection)
            if violated:
                raise ConstraintViolation(
                    f"instruction {line.text!r} violates"
                    f" {len(violated)} constraint(s)",
                    line.location,
                )
            word = 0
            for field_name, op_name, raw_operands in line.parts:
                op = self.desc.operation(field_name, op_name)
                operands = {
                    name: self._resolve_operand(value, symbols, line)
                    for name, value in raw_operands.items()
                }
                try:
                    word |= self.table.encode_operation(
                        field_name, op_name, operands
                    )
                except EncodingError as exc:
                    raise AssemblerError(str(exc), line.location) from exc
            offset = line.address - origin
            words[offset] = word
            listing.append(f"0x{line.address:04x}: 0x{word:0x}  {line.text}")
        return AssembledProgram(words, origin, symbols, listing)

    def _resolve_operand(self, value, symbols, line):
        if isinstance(value, ImmExpr):
            return value.evaluate(symbols, line.address, line.location)
        if isinstance(value, tuple) and len(value) == 2:
            label, sub = value
            return (
                label,
                {
                    name: self._resolve_operand(child, symbols, line)
                    for name, child in sub.items()
                },
            )
        return value


def assemble(desc: ast.Description, source: str,
             filename: str = "<asm>") -> AssembledProgram:
    """One-shot helper: assemble *source* for *desc*."""
    return Assembler(desc).assemble(source, filename)


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point: ``isdl-asm <description.isdl> <source.s>``."""
    from ..isdl import load_file

    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2:
        print("usage: isdl-asm <description.isdl> <source.s> [out.hex]")
        return 2
    desc = load_file(argv[0])
    program = Assembler(desc).assemble_file(argv[1])
    out_lines = [f"{word:x}" for word in program.words]
    if len(argv) > 2:
        with open(argv[2], "w", encoding="utf-8") as handle:
            handle.write("\n".join(out_lines) + "\n")
    else:
        print("\n".join(out_lines))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
