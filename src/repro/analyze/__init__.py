"""repro.analyze — static analysis over parsed ISDL descriptions.

The diagnostics core (:class:`Diagnostic`, :class:`AnalysisResult`, the
text/JSON/SARIF emitters) is imported eagerly — it is a leaf and is what
:mod:`repro.isdl.semantics` builds on.  The pass manager, the passes and
the CLI import the rest of the tool chain, so they load lazily: this
package's ``__init__`` runs *while* ``repro.isdl`` is still initializing
(semantics imports the diagnostics core), and an eager import of the
passes would cycle back into the half-built package.

Three entry points:

* ``repro-lint`` (:mod:`repro.analyze.cli`) — lint description files or
  the built-in architectures, emit text/JSON/SARIF, exit by severity.
* :func:`check_static` — the exploration-loop validity gate, memoized in
  an :class:`~repro.cache.ArtifactCache` by ISDL fingerprint.
* :func:`analyze` — run the pass pipeline directly.
"""

from .diagnostics import (
    AnalysisResult,
    Diagnostic,
    Severity,
    dump_json,
    render_text,
    to_json_payload,
    to_sarif,
)

__all__ = [
    "AnalysisResult",
    "Diagnostic",
    "Severity",
    "dump_json",
    "render_text",
    "to_json_payload",
    "to_sarif",
    # lazily resolved:
    "analyze",
    "check_static",
    "ALL_PASSES",
    "AnalysisPass",
    "PassContext",
    "pass_named",
    "main",
    "fixpoint",
    "InstrFacts",
    "BlockFacts",
    "ProgramFacts",
    "ArchFacts",
    "program_facts",
    "arch_facts",
]

_LAZY = {
    "analyze": "passes",
    "check_static": "passes",
    "ALL_PASSES": "passes",
    "AnalysisPass": "passes",
    "PassContext": "passes",
    "pass_named": "passes",
    "main": "cli",
    "fixpoint": "dataflow",
    "InstrFacts": "dataflow",
    "BlockFacts": "dataflow",
    "ProgramFacts": "dataflow",
    "ArchFacts": "dataflow",
    "program_facts": "dataflow",
    "arch_facts": "dataflow",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
