"""The verdict-first gate answers exactly as the full analysis would.

``check_static`` runs the semantic stage and the passes that can emit an
error, and runs the full :func:`analyze` only to explain a rejection.
On every shipped architecture, every ``examples/*.isdl`` description, the
golden synthesis variants and a few seeded rejections, its verdict must
equal ``analyze``'s, a rejection must carry ``analyze``'s diagnostics and
passes, and no pass the gate skips may emit an error.
"""

import glob
import os

import pytest

from repro.analyze import (
    ALL_PASSES,
    PassContext,
    Severity,
    analyze,
    check_static,
)
from repro.arch import ARCHITECTURES, description_for
from repro.cache import ArtifactCache
from repro.isdl import load_file, load_string, semantics

from tests.analyze.test_gate import AMBIGUOUS_ISDL
from tests.analyze.test_passes import TWO_FIELDS
from tests.hgen.test_synthesis_golden import VARIANTS, _description

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "*.isdl"
)))

#: ISDL202: one field can never select two operations at once
UNSATISFIABLE_ISDL = TWO_FIELDS + """
section constraints
    require F1.nop1 & F1.inc
end
"""

#: ISDL011 (Axiom 1): an encoding assigns one bit twice
SEMANTIC_ERROR_ISDL = TWO_FIELDS.replace(
    "encoding { bits[7:6] = 0b01 }",
    "encoding { bits[7:6] = 0b01; bits[7] = 0b0 }",
)


def _inputs():
    for arch in sorted(ARCHITECTURES):
        yield f"arch:{arch}", lambda arch=arch: description_for(arch)
    for path in EXAMPLES:
        yield (f"example:{os.path.basename(path)}",
               lambda path=path: load_file(path, validate=False))
    for arch, steps in VARIANTS:
        name = "/".join([arch] + [":".join(map(str, s)) for s in steps])
        yield (f"variant:{name}",
               lambda arch=arch, steps=steps: _description(arch, steps))
    for name, source in (("ambiguous", AMBIGUOUS_ISDL),
                         ("unsatisfiable", UNSATISFIABLE_ISDL),
                         ("semantic-error", SEMANTIC_ERROR_ISDL)):
        yield (f"seeded:{name}",
               lambda source=source: load_string(source, validate=False))


INPUTS = list(_inputs())
IDS = [name for name, _ in INPUTS]
#: what the gate runs on a well-formed candidate
GATE_STAGES = ("semantic", "decode-ambiguity", "constraints")


def test_inputs_cover_examples_and_variants():
    assert len(EXAMPLES) >= 3
    assert len(VARIANTS) == 19


@pytest.mark.parametrize("with_cache", [False, True],
                         ids=["uncached", "cached"])
@pytest.mark.parametrize("name,build", INPUTS, ids=IDS)
def test_gate_verdict_matches_analyze(name, build, with_cache):
    desc = build()
    full = analyze(desc)
    gate = check_static(desc, cache=ArtifactCache() if with_cache else None)
    assert gate.ok() == full.ok()
    if not full.ok():
        assert gate.diagnostics == full.diagnostics
        assert gate.passes == full.passes
    else:
        assert gate.passes == GATE_STAGES
        # what the gate reports is a subset of the full lint
        assert set(gate.diagnostics) <= set(full.diagnostics)


@pytest.mark.parametrize("name,build", INPUTS, ids=IDS)
def test_passes_the_gate_skips_emit_no_error(name, build):
    desc = build()
    if any(d.severity is Severity.ERROR for d in semantics.diagnose(desc)):
        # no pass runs on an ill-formed description, the gate included
        assert analyze(desc).passes == ("semantic",)
        return
    for analysis in ALL_PASSES:
        if analysis.emits_errors:
            continue
        found = analysis.run(PassContext(desc))
        assert not [d for d in found if d.severity is Severity.ERROR], \
            analysis.name


def test_seeded_rejections_are_rejected():
    rejected = {name for name, build in INPUTS
                if not check_static(build()).ok()}
    assert {"seeded:ambiguous", "seeded:unsatisfiable",
            "seeded:semantic-error", "example:ambiguous.isdl"} <= rejected
