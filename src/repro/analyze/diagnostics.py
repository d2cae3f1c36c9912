"""The diagnostics core of the static-analysis engine.

Every problem a static analysis finds is a :class:`Diagnostic`: a stable
code (``ISDL101``), a :class:`Severity`, a human message, an optional
structural context (``where`` — the ``FIELD.operation`` path), and an
optional :class:`~repro.errors.SourceLocation` carried over from the
lexer.  A set of diagnostics for one description is an
:class:`AnalysisResult`, which knows how to render itself as fixed-width
text, structured JSON, or SARIF 2.1.0 (the interchange format CI code
scanners consume).

This module is a *leaf*: it imports nothing but :mod:`repro.errors`, so
:mod:`repro.isdl.semantics` (which every other layer imports) can build
diagnostics without an import cycle.

Diagnostic code ranges (the full table lives in the README):

======== ==================================================================
``ISDL0xx`` well-formedness (parser / semantic checker)
``ISDL1xx`` decode ambiguity (the static dual of the Fig. 4 disassembler)
``ISDL2xx`` constraint analysis (unknown refs, unsatisfiable, vacuous)
``ISDL3xx`` RTL dataflow (never-written reads, dead writes, write races)
``ISDL4xx`` unused definitions (tokens, non-terminals, storages, aliases)
``ISDL5xx`` encoding-space coverage (opcode holes, wasted bits)
``ISDL6xx`` whole-program dataflow (unreachable blocks, never-halting,
            always-false guards, dead conditional / program-dead writes)
``ISDL9xx`` analysis-internal failures
======== ==================================================================
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SourceLocation

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisResult",
    "render_text",
    "to_json_payload",
    "to_sarif",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering supports ``max()`` and thresholds."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    #: SARIF ``level`` values (SARIF calls INFO "note")
    @property
    def sarif_level(self) -> str:
        return {"info": "note", "warning": "warning", "error": "error"}[
            self.label
        ]

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analysis over an ISDL description."""

    code: str  # stable, e.g. "ISDL101"
    severity: Severity
    message: str
    where: str = ""  # structural context, e.g. "EX.addi"
    location: Optional[SourceLocation] = None

    def __str__(self) -> str:
        prefix = f"{self.location}: " if self.location is not None else ""
        context = f" [{self.where}]" if self.where else ""
        return (
            f"{prefix}{self.severity.label} {self.code}{context}:"
            f" {self.message}"
        )

    def legacy_text(self) -> str:
        """The ``location: message`` text that
        :func:`repro.isdl.semantics.check` raises for its first finding."""
        if self.location is not None:
            return f"{self.location}: {self.message}"
        return self.message

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
        }
        if self.where:
            payload["where"] = self.where
        if self.location is not None:
            payload["file"] = self.location.filename
            payload["line"] = self.location.line
            payload["column"] = self.location.column
        return payload


@dataclass(frozen=True)
class AnalysisResult:
    """All diagnostics one analysis run produced for one description."""

    name: str  # the analyzed description (or file) name
    diagnostics: Tuple[Diagnostic, ...] = ()
    passes: Tuple[str, ...] = ()  # pass names that actually ran

    # -- severity views ----------------------------------------------------

    @property
    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def ok(self, fail_on: Severity = Severity.ERROR) -> bool:
        """True when no diagnostic reaches *fail_on*."""
        worst = self.max_severity
        return worst is None or worst < fail_on

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for diagnostic in self.diagnostics:
            out[diagnostic.severity.label] += 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        return (
            f"{self.name}: {counts['error']} error(s),"
            f" {counts['warning']} warning(s), {counts['info']} info"
        )


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def render_text(results: Sequence[AnalysisResult]) -> str:
    """The human report: one line per diagnostic plus a summary block."""
    lines: List[str] = []
    for result in results:
        for diagnostic in result.diagnostics:
            lines.append(str(diagnostic))
        lines.append(result.summary())
    return "\n".join(lines)


def to_json_payload(results: Sequence[AnalysisResult]) -> Dict[str, object]:
    """Structured JSON: stable field names, one entry per description."""
    worst = [r.max_severity for r in results if r.max_severity is not None]
    return {
        "version": 1,
        "tool": "repro-lint",
        "targets": [
            {
                "name": result.name,
                "passes": list(result.passes),
                "counts": result.counts(),
                "diagnostics": [d.to_dict() for d in result.diagnostics],
            }
            for result in results
        ],
        "max_severity": max(worst).label if worst else None,
    }


def to_sarif(results: Sequence[AnalysisResult],
             tool_version: str = "1.0.0") -> Dict[str, object]:
    """SARIF 2.1.0: one run, one result per diagnostic, rules deduped."""
    rules: Dict[str, Dict[str, object]] = {}
    sarif_results: List[Dict[str, object]] = []
    for result in results:
        for diagnostic in result.diagnostics:
            rules.setdefault(
                diagnostic.code,
                {
                    "id": diagnostic.code,
                    "defaultConfiguration": {
                        "level": diagnostic.severity.sarif_level
                    },
                },
            )
            entry: Dict[str, object] = {
                "ruleId": diagnostic.code,
                "level": diagnostic.severity.sarif_level,
                "message": {"text": diagnostic.message},
            }
            location = diagnostic.location
            uri = location.filename if location is not None else result.name
            region = (
                {"startLine": location.line,
                 "startColumn": location.column}
                if location is not None
                else {"startLine": 1}
            )
            entry["locations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": uri},
                        "region": region,
                    }
                }
            ]
            sarif_results.append(entry)
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": tool_version,
                        "informationUri": (
                            "https://github.com/repro/repro"
                        ),
                        "rules": [
                            rules[code] for code in sorted(rules)
                        ],
                    }
                },
                "results": sarif_results,
            }
        ],
    }


def dump_json(payload: Dict[str, object]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Convenience alias for the pass functions' return type.
DiagnosticList = List[Diagnostic]
