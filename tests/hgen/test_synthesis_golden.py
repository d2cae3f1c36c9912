"""HGEN's output, pinned before its sharing pass was rewritten for speed.

``golden/synthesis_digests.json`` was recorded with the set-based clique
greedy, which rescanned every pair of alive super-nodes each round, and
with a compatibility matrix that called ``SharingAnalysis.compatible`` on
every node pair.  Each entry is one description synthesized in one
sharing mode:

* descriptions: the four shipped architectures and the fixed transform
  variants in :data:`VARIANTS` (``drop_operation``,
  ``narrow_register_file``, ``resize_memory``, ``add_constraint``,
  ``drop_field`` and two short chains);
* modes: shared with constraints, shared without constraints, unshared.

Pinned per entry: the cliques, a digest of the allocation, the SHA-256 of
the Verilog text, its line count, ``area.total``, ``area.core_total`` and
``timing.cycle_ns``.  Re-record only for an intended output change::

    PYTHONPATH=src python tests/hgen/test_synthesis_golden.py
"""

import hashlib
import importlib
import json
import os

import pytest

from repro.arch import description_for
from repro.explore import transforms
from repro.hgen import synthesize

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "synthesis_digests.json")

ARCHS = ("acc8", "risc16", "spam", "spam2")

#: (architecture, transform steps); each step is a transform name and
#: its arguments after the description
VARIANTS = (
    ("spam", (("drop_operation", "FP1", "fadd"),)),
    ("spam", (("drop_operation", "INT", "shl"),)),
    ("spam2", (("drop_operation", "ALU", "and_"),)),
    ("risc16", (("drop_operation", "EX", "cmp"),)),
    ("acc8", (("drop_operation", "OP", "push"),)),
    ("spam", (("narrow_register_file", 8),)),
    ("spam2", (("narrow_register_file", 4),)),
    ("risc16", (("narrow_register_file", 4),)),
    ("spam", (("resize_memory", "DM", 512),)),
    ("risc16", (("resize_memory", "IM", 256),)),
    ("acc8", (("resize_memory", "DM", 128),)),
    ("spam", (("add_constraint", "FP1", "fadd", "FP2", "fmul"),)),
    ("spam", (("add_constraint", "INT", "add", "MV1", "mov"),)),
    ("spam2", (("add_constraint", "ALU", "add", "MEM", "ld"),)),
    ("spam", (("drop_field", "MV3"),)),
    ("spam", (("drop_field", "FP2"),)),
    ("spam2", (("drop_field", "MV"),)),
    ("spam", (("drop_field", "MV2"),
              ("add_constraint", "LSU", "ld", "MV1", "mov"))),
    ("risc16", (("drop_operation", "EX", "xor_"),
                ("narrow_register_file", 4))),
)

#: name -> (share, use_constraints)
MODES = {
    "shared": (True, True),
    "shared_no_constraints": (True, False),
    "unshared": (False, False),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _description(arch, steps):
    desc = description_for(arch)
    for name, *args in steps:
        desc = getattr(transforms, name)(desc, *args)
    return desc


def _cases():
    for arch in ARCHS:
        yield arch, ()
    yield from VARIANTS


def _entry_name(arch, steps, mode):
    parts = [arch] + [":".join(map(str, step)) for step in steps]
    return "/".join(parts) + f"@{mode}"


def digest(model):
    """The pinned view of one synthesis result."""
    allocation = None
    if model.allocation is not None:
        allocation = _sha256(json.dumps(sorted(
            [str(node_id), instance]
            for node_id, instance in model.allocation.items()
        )))
    return {
        "cliques": model.cliques,
        "allocation_sha256": allocation,
        "verilog_sha256": _sha256(model.verilog),
        "verilog_lines": model.verilog_lines,
        "area_total": model.area.total,
        "area_core_total": model.area.core_total,
        "cycle_ns": model.timing.cycle_ns,
    }


_CASES = [(arch, steps, mode) for arch, steps in _cases() for mode in MODES]


def _synthesize(arch, steps, mode):
    share, use_constraints = MODES[mode]
    return synthesize(_description(arch, steps), share=share,
                      use_constraints=use_constraints)


def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["entries"]


def test_golden_covers_every_case():
    assert set(_golden()) == {_entry_name(*case) for case in _CASES}
    assert len(_CASES) == (len(ARCHS) + len(VARIANTS)) * len(MODES)


@pytest.mark.parametrize("arch,steps,mode", _CASES,
                         ids=[_entry_name(*case) for case in _CASES])
def test_synthesis_matches_golden(arch, steps, mode):
    model = _synthesize(arch, steps, mode)
    assert digest(model) == _golden()[_entry_name(arch, steps, mode)]


def test_synthesis_writes_no_verilog(monkeypatch):
    """Table 2's line count comes from the netlist: synthesis never
    emits the module, and the text emitted when read still matches."""

    def refuse(*args):
        raise AssertionError("synthesis emitted Verilog")

    # the submodules; the package's ``synthesize`` is the function
    modules = [importlib.import_module(f"repro.hgen.{name}")
               for name in ("synthesize", "verilog")]
    cases = [(arch, (), mode) for arch in ARCHS for mode in MODES]
    with monkeypatch.context() as patch:
        for module in modules:
            patch.setattr(module, "emit_verilog", refuse)
        models = [_synthesize(*case) for case in cases]
    for case, model in zip(cases, models):
        assert digest(model) == _golden()[_entry_name(*case)]


if __name__ == "__main__":
    # one entry per line keeps the file diffable
    rows = sorted(
        f" {json.dumps(_entry_name(*case))}:"
        f" {json.dumps(digest(_synthesize(*case)), sort_keys=True)}"
        for case in _CASES
    )
    with open(GOLDEN, "w", encoding="utf-8") as out:
        out.write('{"entries": {\n' + ",\n".join(rows) + "\n}}\n")
    print(f"wrote {GOLDEN}")
