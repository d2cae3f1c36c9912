"""GENSIM — the simulator generator (paper §3).

GENSIM takes an ISDL description and produces an XSIM simulator.  In the
paper the architecture-dependent parts (state data structures, disassembler,
processing core) are emitted as C source and linked with a common library;
here the same split exists between the description-derived tables/closures
built by :func:`generate_simulator` and the common code in the rest of
:mod:`repro.gensim`.  :func:`emit_source` demonstrates the code-generation
path by writing a standalone Python module for the simulator.
"""

from __future__ import annotations

from typing import List, Optional

from ..encoding.signature import SignatureTable
from ..errors import IsdlSemanticError
from ..isdl import ast, semantics
from ..isdl.printer import print_description
from .xsim import XSim


def generate_simulator(desc: ast.Description,
                       strict: bool = True) -> XSim:
    """Generate a cycle-accurate, bit-true ILS for *desc*.

    With *strict* (the default) the description is refused on any finding
    of the semantic checks or of the decode-ambiguity pass, which verifies
    that the assembly function is decodable (unique signature matches).
    """
    if strict:
        # imported here so that importing the package does not load the
        # analysis passes
        from ..analyze.passes import analyze, pass_named

        findings = analyze(
            desc, passes=(pass_named("decode-ambiguity"),)
        ).diagnostics
        if findings:
            raise IsdlSemanticError(
                "description cannot be simulated:\n  "
                + "\n  ".join(str(d) for d in findings)
            )
    table = SignatureTable(desc)
    return XSim(desc, table)


def emit_source(desc: ast.Description, module_name: str = "xsim_generated",
                validate: bool = True) -> str:
    """Emit a standalone Python module implementing the simulator.

    The analogue of GENSIM's generated C: the module embeds the (checked)
    description and exposes ``make_simulator()`` plus a command-line entry
    point, and is importable without this generator.
    """
    if validate:
        semantics.check(desc)
    isdl_text = print_description(desc)
    lines: List[str] = [
        f'"""XSIM simulator for {desc.name!r} — generated by GENSIM."""',
        "",
        "from repro.isdl import load_string",
        "from repro.gensim.xsim import XSim",
        "",
        "ISDL_SOURCE = '''",
        isdl_text.replace("\\", "\\\\").replace("'''", "\\'\\'\\'"),
        "'''",
        "",
        "",
        "def description():",
        f'    return load_string(ISDL_SOURCE, filename="{desc.name}.isdl")',
        "",
        "",
        "def make_simulator():",
        f'    """A cycle-accurate, bit-true ILS for {desc.name}."""',
        "    return XSim(description())",
        "",
        "",
        'if __name__ == "__main__":',
        "    import sys",
        "    from repro.gensim.cli import CommandLine",
        "    CommandLine(make_simulator()).main(sys.argv[1:])",
        "",
    ]
    return "\n".join(lines)


def write_source(desc: ast.Description, path: str) -> None:
    """Write :func:`emit_source` output to *path*."""
    source = emit_source(desc)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
