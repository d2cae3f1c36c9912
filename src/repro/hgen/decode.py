"""Decode-logic generation (paper §4.2).

"There is a direct relationship between the disassembler generated for the
GENSIM system and the decode logic to be used in hardware: they both
implement the same function."  A decode line for an operation is the AND of
the constant literals of its signature — an efficient two-level
implementation; parameter encodings reverse into plain wiring (handled by
``Concat`` cells in the datapath).

The literals come from the same view of the signature the disassembler
matches with: its ``constant_mask`` and ``constant_value``, derived once
when the signature is built.  A line costs one step per constant bit, not
one per word bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..encoding.signature import Signature


@dataclass(frozen=True)
class DecodeLine:
    """The sum-free product term that activates one operation."""

    name: str
    literals: Tuple[Tuple[int, int], ...]  # (word bit, required value)

    @property
    def gate_count(self) -> int:
        """Two-level implementation cost: inverters + AND-tree gates."""
        inverters = sum(1 for _, value in self.literals if value == 0)
        and_gates = max(len(self.literals) - 1, 0)
        return inverters + and_gates

    def equation(self, signal: str = "I") -> str:
        """Textual equation in the paper's style, e.g. ``I9'.I8'.I6.I5``."""
        if not self.literals:
            return "1"
        terms = [
            f"{signal}{bit}" + ("" if value else "'")
            for bit, value in sorted(self.literals, reverse=True)
        ]
        return ".".join(terms)

    def matches(self, word: int) -> bool:
        return all(((word >> bit) & 1) == value for bit, value in self.literals)


def decode_line(name: str, signature: Signature) -> DecodeLine:
    """Derive the decode line from an operation/option signature.

    One literal per constant bit, in ascending bit order.
    """
    mask = signature.constant_mask
    value = signature.constant_value
    literals = []
    while mask:
        low = mask & -mask
        mask ^= low
        literals.append((low.bit_length() - 1, 1 if value & low else 0))
    return DecodeLine(name, tuple(literals))


def decode_lines_for(table, desc) -> List[DecodeLine]:
    """All operation decode lines of a description (reporting helper)."""
    lines = []
    for fld, op in desc.operations():
        signature = table.operation(fld.name, op.name)
        lines.append(decode_line(f"{fld.name}.{op.name}", signature))
    return lines
