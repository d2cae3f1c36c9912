"""The ISDL machine description language.

Parsing, AST, RTL mini-language, semantic checking, and pretty-printing for
the Instruction Set Description Language of the paper (section 2).
"""

from . import ast, rtl
from .fingerprint import (
    FingerprintDelta,
    FingerprintTree,
    fingerprint,
    fingerprint_delta,
    fingerprint_text,
    fingerprint_tree,
)
from .intrinsics import INTRINSICS
from .loader import load_file, load_string
from .parser import parse
from .printer import description_units, print_description
from .semantics import check

__all__ = [
    "ast",
    "rtl",
    "INTRINSICS",
    "FingerprintDelta",
    "FingerprintTree",
    "fingerprint",
    "fingerprint_delta",
    "fingerprint_text",
    "fingerprint_tree",
    "description_units",
    "load_file",
    "load_string",
    "parse",
    "print_description",
    "check",
]
