"""``repro-lint`` — the static-analysis front end.

Lint ISDL description files (or the built-in example architectures) and
report diagnostics as text, structured JSON, or SARIF 2.1.0::

    repro-lint path/to/desc.isdl
    repro-lint --all-arch --format=sarif --out=lint.sarif
    repro-lint --arch spam2 --fail-on=warning

The exit code reflects the worst finding against ``--fail-on`` (default
``error``): 0 when every target is below the threshold, 2 when any
error-severity diagnostic was reported, 1 when only warnings/infos
reached the threshold.  A file that does not parse is itself a
diagnostic (``ISDL001``), not a crash.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import IsdlSyntaxError, LocatedError
from .diagnostics import (
    AnalysisResult,
    Diagnostic,
    Severity,
    dump_json,
    render_text,
    to_json_payload,
    to_sarif,
)

#: a file the parser rejects — lint reports it instead of crashing
CODE_PARSE_ERROR = "ISDL001"
#: a --program / --workloads source that does not assemble
CODE_ASM_ERROR = "ISDL002"


def _assemble_programs(desc, program_paths, workload_names=None):
    """``(programs, diagnostics)``: assembled ``(name, words, origin)``
    images for the whole-program lints, plus a diagnostic per source
    that fails to assemble under *desc*."""
    programs = []
    diagnostics = []
    from ..asm import Assembler

    assembler = Assembler(desc)
    if workload_names is not None:
        from ..arch.workloads import all_workloads

        for workload in all_workloads():
            if workload.name not in workload_names:
                continue
            program = assembler.assemble(
                workload.source, filename=f"{workload.name}.s"
            )
            programs.append(
                (workload.name, tuple(program.words), program.origin)
            )
    for path in program_paths:
        try:
            program = assembler.assemble_file(path)
        except (LocatedError, OSError) as exc:
            diagnostics.append(Diagnostic(
                CODE_ASM_ERROR, Severity.ERROR,
                f"cannot assemble {path} for {desc.name}: {exc}",
                where=path,
            ))
            continue
        programs.append((path, tuple(program.words), program.origin))
    return programs, diagnostics


def _lint_file(path: str, program_paths=()) -> AnalysisResult:
    from ..isdl import load_file
    from .passes import analyze

    try:
        desc = load_file(path, validate=False)
    except IsdlSyntaxError as exc:
        return AnalysisResult(path, (Diagnostic(
            CODE_PARSE_ERROR, Severity.ERROR, exc.message,
            location=exc.location,
        ),), ("parse",))
    except (OSError, UnicodeDecodeError) as exc:  # missing, or not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        return AnalysisResult(path, (Diagnostic(
            CODE_PARSE_ERROR, Severity.ERROR, f"cannot read {path}: {reason}",
        ),), ("parse",))
    programs, extra = _assemble_programs(desc, program_paths)
    result = analyze(desc, programs=programs or None)
    if extra:
        result = AnalysisResult(
            result.name, result.diagnostics + tuple(extra), result.passes
        )
    return result


def _lint_arch(name: str, program_paths=(),
               workloads: bool = False) -> AnalysisResult:
    from ..arch import description_for
    from .passes import analyze

    desc = description_for(name)
    workload_names = None
    if workloads:
        from ..arch.workloads import workloads_for

        workload_names = {w.name for w in workloads_for(name)}
    programs, extra = _assemble_programs(
        desc, program_paths, workload_names
    )
    result = analyze(desc, programs=programs or None)
    if extra:
        result = AnalysisResult(
            result.name, result.diagnostics + tuple(extra), result.passes
        )
    return result


def _list_codes() -> str:
    from .passes import ALL_PASSES

    lines = ["semantic             ISDL010-ISDL013, ISDL201"
             "  well-formedness (repro.isdl.semantics)"]
    for analysis in ALL_PASSES:
        lines.append(
            f"{analysis.name:<20} {analysis.codes:<22} {analysis.description}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis for ISDL machine descriptions.",
    )
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="ISDL description files to lint")
    parser.add_argument("--arch", action="append", default=[],
                        metavar="NAME",
                        help="lint a built-in architecture (repeatable)")
    parser.add_argument("--all-arch", action="store_true",
                        help="lint every built-in architecture")
    parser.add_argument("--program", action="append", default=[],
                        metavar="ASM",
                        help="assemble ASM against each linted description"
                             " and run the whole-program lints (repeatable)")
    parser.add_argument("--workloads", action="store_true",
                        help="with --arch/--all-arch: run the whole-program"
                             " lints over each registered workload")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser.add_argument("--fail-on", default="error", metavar="SEVERITY",
                        choices=("info", "warning", "error"),
                        help="lowest severity that fails the run"
                             " (default: error)")
    parser.add_argument("--list-codes", action="store_true",
                        help="print the pass / diagnostic-code table")
    args = parser.parse_args(argv)

    if args.list_codes:
        print(_list_codes())
        return 0

    arch_names = list(args.arch)
    if args.all_arch:
        from ..arch import ARCHITECTURES

        arch_names = sorted(set(arch_names) | set(ARCHITECTURES))
    if not args.files and not arch_names:
        parser.error("nothing to lint: give FILEs, --arch, or --all-arch")

    results: List[AnalysisResult] = []
    for path in args.files:
        results.append(_lint_file(path, args.program))
    for name in sorted(arch_names):
        try:
            results.append(_lint_arch(name, args.program,
                                      workloads=args.workloads))
        except (KeyError, LocatedError) as exc:
            results.append(AnalysisResult(name, (Diagnostic(
                CODE_PARSE_ERROR, Severity.ERROR,
                f"unknown architecture {name!r}"
                if isinstance(exc, KeyError) else str(exc),
            ),), ("parse",)))

    if args.format == "text":
        report = render_text(results) + "\n"
    elif args.format == "json":
        report = dump_json(to_json_payload(results))
    else:
        report = dump_json(to_sarif(results))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)

    threshold = Severity.parse(args.fail_on)
    if all(result.ok(threshold) for result in results):
        return 0
    if any(not result.ok(Severity.ERROR) for result in results):
        return 2
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
