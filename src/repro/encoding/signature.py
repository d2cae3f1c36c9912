"""Operation signatures and the assembly function (paper Fig. 3, §3.3.2).

A *signature* is an image of the instruction word with a symbol in each bit:

* ``None`` — don't-care: the assembly function never sets this bit,
* ``0`` / ``1`` — a constant set by the operation's opcode bits,
* ``(param_name, bit_index)`` — a function of bit *bit_index* of one
  parameter's return value.

Axiom 1 of the paper (each parameter symbol depends on a single parameter
only) holds by construction of our encoding AST and is validated by the
semantic checker, so every signature can be inverted symbolically: constants
identify the operation, parameter symbols are gathered back into parameter
values.  The same signature model drives the GENSIM disassembler and the
HGEN decode-logic generator (paper §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from .. import obs
from ..errors import (
    AmbiguousEncodingError,
    DisassemblyError,
    EncodingError,
    IsdlSemanticError,
)
from ..isdl import ast

#: A decoded operand: token parameters bind to an integer value; non-terminal
#: parameters bind to ``(option_label, {sub_param: operand, ...})``.
Operand = Union[int, Tuple[str, Dict[str, "Operand"]]]

#: One contiguous stretch of a parameter's encoding: ``width`` word bits
#: from ``word_lo`` carry value bits from ``value_lo`` upwards.
BitRun = Tuple[int, int, int]


def _derived():
    """A view computed at construction, kept out of ``==``/hash/repr."""
    return field(init=False, compare=False, hash=False, repr=False)


@dataclass(frozen=True, slots=True)
class Signature:
    """The per-bit symbol image of one operation or non-terminal option.

    The symbol image is the definition; the masks and per-parameter bit
    views are derived from it once, at construction, so matching a word
    is one AND and recovering or placing a parameter is one shift-and-mask
    per contiguous bit run.
    """

    width: int
    symbols: Tuple[object, ...]  # length == width, indexed by bit position
    #: mask of bits carrying a 0/1 constant
    constant_mask: int = _derived()
    #: the constant bits' values (within :attr:`constant_mask`)
    constant_value: int = _derived()
    #: mask of every bit the assembly function sets (non-don't-care)
    defined_mask: int = _derived()
    #: parameter name -> its maximal :data:`BitRun` s in word-bit order;
    #: names in order of first appearance
    _runs: Dict[str, Tuple[BitRun, ...]] = _derived()

    def __post_init__(self):
        constant_mask = constant_value = defined_mask = 0
        runs: Dict[str, List[List[int]]] = {}
        for position, symbol in enumerate(self.symbols):
            if symbol is None:
                continue
            bit = 1 << position
            defined_mask |= bit
            if isinstance(symbol, tuple):
                name, value_bit = symbol
                merged = runs.setdefault(name, [])
                last = merged[-1] if merged else None
                if (last is not None and position == last[0] + last[1]
                        and value_bit == last[2] + last[1]):
                    last[1] += 1  # word and value bit both advance
                else:
                    merged.append([position, 1, value_bit])
            elif symbol in (0, 1):
                constant_mask |= bit
                if symbol == 1:
                    constant_value |= bit
        setattr_ = object.__setattr__
        setattr_(self, "constant_mask", constant_mask)
        setattr_(self, "constant_value", constant_value)
        setattr_(self, "defined_mask", defined_mask)
        setattr_(self, "_runs", {
            name: tuple(tuple(run) for run in merged)
            for name, merged in runs.items()
        })

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_encoding(encoding: Sequence[ast.BitAssign], width: int,
                      value_widths: Dict[str, int]) -> "Signature":
        """Build a signature from bitfield assignments.

        *value_widths* maps parameter names to their return-value widths
        (used to expand whole-parameter references into per-bit symbols).
        """
        symbols: List[object] = [None] * width
        for assign in encoding:
            rhs = assign.rhs
            for offset in range(assign.width):
                position = assign.lo + offset
                if isinstance(rhs, ast.EncConst):
                    symbols[position] = (rhs.value >> offset) & 1
                elif isinstance(rhs, ast.EncParam):
                    lo = rhs.lo if rhs.lo is not None else 0
                    symbols[position] = (rhs.name, lo + offset)
                else:
                    raise IsdlSemanticError(
                        f"unknown encoding right-hand side {rhs!r}"
                    )
        return Signature(width, tuple(symbols))

    # -- views -------------------------------------------------------------

    def param_positions(self, name: str) -> List[Tuple[int, int]]:
        """``(word_bit, value_bit)`` pairs for parameter *name*, in word-bit
        order."""
        return [
            (word_lo + offset, value_lo + offset)
            for word_lo, width, value_lo in self._runs.get(name, ())
            for offset in range(width)
        ]

    def param_runs(self, name: str) -> Tuple[BitRun, ...]:
        """Parameter *name*'s encoding as maximal contiguous bit runs."""
        return self._runs.get(name, ())

    def param_names(self) -> List[str]:
        """Parameter names appearing in the signature, in bit order."""
        return list(self._runs)

    # -- the assembly function and its inverse ------------------------------

    def matches(self, word: int) -> bool:
        """True if the constant part of the signature matches *word*."""
        return (word & self.constant_mask) == self.constant_value

    def assemble(self, param_bits: Dict[str, int]) -> int:
        """Apply the assembly function: constants + encoded parameter bits.

        *param_bits* maps each parameter to its (unsigned) return-value bit
        pattern.  Don't-care bits are left zero.
        """
        word = self.constant_value
        for name, runs in self._runs.items():
            if name not in param_bits:
                raise EncodingError(f"missing value for parameter {name!r}")
            bits = param_bits[name]
            for word_lo, width, value_lo in runs:
                word |= ((bits >> value_lo) & ((1 << width) - 1)) << word_lo
        return word

    def extract(self, word: int, name: str) -> int:
        """Invert the encoding of parameter *name* from *word*."""
        value = 0
        for word_lo, width, value_lo in self._runs.get(name, ()):
            value |= ((word >> word_lo) & ((1 << width) - 1)) << value_lo
        return value


# ---------------------------------------------------------------------------
# Signature tables for a whole description
# ---------------------------------------------------------------------------


class _DecodeIndex:
    """The rows of one field (or non-terminal), grouped by constant mask.

    A row matches a word when the word's bits under the row's constant
    mask equal its constant value.  Rows sharing a mask therefore sit in
    one ``{constant_value: rows}`` dict, and a word costs one lookup per
    distinct mask.  Every matching row is found — the same set a linear
    scan over the rows would find — so a word with more than one hit
    across the groups is ambiguous exactly when the scan says so.
    """

    __slots__ = ("owner", "groups")

    def __init__(self, owner, rows):
        self.owner = owner
        grouped: Dict[int, Dict[int, Tuple]] = {}
        for row in rows:
            _, signature = row
            by_value = grouped.setdefault(signature.constant_mask, {})
            value = signature.constant_value
            by_value[value] = by_value.get(value, ()) + (row,)
        self.groups = tuple(grouped.items())

    def lookup(self, word: int):
        found = None
        for mask, by_value in self.groups:
            rows = by_value.get(word & mask)
            if rows is not None:
                found = rows if found is None else found + rows
        if found is not None and len(found) == 1:
            return found[0]
        raise self._error(word, found or ())

    def _error(self, word: int, rows) -> DisassemblyError:
        owner = self.owner
        if isinstance(owner, ast.NonTerminal):
            if not rows:
                return DisassemblyError(
                    f"ILLEGAL INSTRUCTION: value 0x{word:x} matches no option"
                    f" of non-terminal {owner.name!r}"
                )
            names = sorted(f"{owner.name}.{option.label}"
                           for option, _ in rows)
            return AmbiguousEncodingError(
                f"AMBIGUOUS INSTRUCTION: value 0x{word:x} matches"
                f" {len(names)} options of non-terminal {owner.name!r}:"
                f" {', '.join(names)}",
                matches=tuple(names),
            )
        if not rows:
            return DisassemblyError(
                f"ILLEGAL INSTRUCTION: word 0x{word:x} matches no operation"
                f" in field {owner.name!r}"
            )
        names = sorted(f"{owner.name}.{op.name}" for op, _ in rows)
        return AmbiguousEncodingError(
            f"AMBIGUOUS INSTRUCTION: word 0x{word:x} matches"
            f" {len(names)} operations in field {owner.name!r}:"
            f" {', '.join(names)} (assembly function is not"
            " decodable — see Axiom 1)",
            matches=tuple(names),
        )


class SignatureTable:
    """All signatures of a description, for operations and NT options.

    Built once per description; shared by the assembler, the disassembler,
    the decode-logic generator and the dataflow analyses.  Decoding goes
    through :meth:`decode`, which looks words up in one mask-grouped index
    per field and per non-terminal, derived from the rows on first use.
    """

    def __init__(self, desc: ast.Description):
        self.desc = desc
        self.operation_signatures: Dict[Tuple[str, str], Signature] = {}
        self.option_signatures: Dict[Tuple[str, str], Signature] = {}
        self._field_indexes: Dict[str, _DecodeIndex] = {}
        self._nt_indexes: Dict[str, _DecodeIndex] = {}
        with obs.span("encoding.sigtable", desc=desc.name):
            for fld, op in desc.operations():
                widths = self._value_widths(op.params)
                self.operation_signatures[(fld.name, op.name)] = (
                    Signature.from_encoding(
                        op.encoding, desc.word_width, widths
                    )
                )
            for nt in desc.nonterminals.values():
                for opt in nt.options:
                    widths = self._value_widths(opt.params)
                    self.option_signatures[(nt.name, opt.label)] = (
                        Signature.from_encoding(opt.encoding, nt.width,
                                                widths)
                    )
            obs.add("sigtable.builds")

    def _value_widths(self, params) -> Dict[str, int]:
        widths = {}
        for param in params:
            ptype = self.desc.param_type(param)
            if isinstance(ptype, ast.TokenDef):
                widths[param.name] = ptype.value_width
            else:
                widths[param.name] = ptype.width
        return widths

    def operation(self, field_name: str, op_name: str) -> Signature:
        return self.operation_signatures[(field_name, op_name)]

    def option(self, nt_name: str, label: str) -> Signature:
        return self.option_signatures[(nt_name, label)]

    # -- decoding (paper Fig. 4's constant match) ----------------------------

    def decode(self, owner: Union[ast.Field, ast.NonTerminal], word: int):
        """``(operation, signature)`` of the one operation of field *owner*
        whose constant bits match *word* — or ``(option, signature)`` when
        *owner* is a non-terminal and *word* its return value.

        Raises :class:`~repro.errors.DisassemblyError` when nothing
        matches and :class:`~repro.errors.AmbiguousEncodingError`, naming
        every match, when more than one does.
        """
        nonterminal = isinstance(owner, ast.NonTerminal)
        indexes = self._nt_indexes if nonterminal else self._field_indexes
        index = indexes.get(owner.name)
        if index is None:
            # two threads racing here build equal indexes; either may stay
            if nonterminal:
                rows = [(option, self.option(owner.name, option.label))
                        for option in owner.options]
            else:
                rows = [(op, self.operation(owner.name, op.name))
                        for op in owner.operations]
            index = indexes[owner.name] = _DecodeIndex(owner, rows)
        return index.lookup(word)

    # -- recursive operand encoding -----------------------------------------

    def encode_param(self, param: ast.Param, operand: Operand) -> int:
        """Encode one operand to its return-value bit pattern."""
        ptype = self.desc.param_type(param)
        if isinstance(ptype, ast.TokenDef):
            if not isinstance(operand, int):
                raise EncodingError(
                    f"parameter {param.name!r} expects a token value,"
                    f" got {operand!r}"
                )
            if operand not in ptype.valid_values():
                raise EncodingError(
                    f"value {operand} out of range for token {ptype.name}"
                )
            return ptype.encode_value(operand)
        if not (isinstance(operand, tuple) and len(operand) == 2):
            raise EncodingError(
                f"parameter {param.name!r} expects a non-terminal operand"
                f" (label, sub-operands), got {operand!r}"
            )
        label, sub_operands = operand
        option = ptype.option(label)
        signature = self.option(ptype.name, label)
        bits = {}
        for sub_param in option.params:
            if sub_param.name not in sub_operands:
                raise EncodingError(
                    f"missing operand {sub_param.name!r} for"
                    f" {ptype.name}.{label}"
                )
            bits[sub_param.name] = self.encode_param(
                sub_param, sub_operands[sub_param.name]
            )
        return signature.assemble(bits)

    def encode_operation(self, field_name: str, op_name: str,
                         operands: Dict[str, Operand]) -> int:
        """Encode a full operation into its instruction-word contribution."""
        op = self.desc.operation(field_name, op_name)
        signature = self.operation(field_name, op_name)
        bits = {}
        for param in op.params:
            if param.name not in operands:
                raise EncodingError(
                    f"missing operand {param.name!r} for"
                    f" {field_name}.{op_name}"
                )
            bits[param.name] = self.encode_param(param, operands[param.name])
        return signature.assemble(bits)

    def encode_instruction(
        self, selections: Dict[str, Tuple[str, Dict[str, Operand]]]
    ) -> int:
        """Encode a whole (VLIW) instruction.

        *selections* maps field name → ``(op_name, operands)``.  Fields not
        mentioned contribute nothing (their bits stay don't-care/zero) —
        descriptions model explicit NOP encodings where the hardware needs
        them.
        """
        word = 0
        for field_name, (op_name, operands) in selections.items():
            word |= self.encode_operation(field_name, op_name, operands)
        return word

