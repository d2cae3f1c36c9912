"""Golden transform-locality tests.

Every transform in ``repro.explore.transforms`` is applied to each
architecture with a deterministic parameterization, and the resulting
``FingerprintDelta`` is profiled: which unit categories changed, and
exactly which units.  The profiles are pinned in
``golden_locality.json`` so a transform that silently starts perturbing
unrelated units fails loudly.  Locality is what keeps a child's
fingerprint cheap: its tree renders only the units the transform
replaced (the unit-text memo of ``repro.isdl.fingerprint``).

Transforms that do not apply to an architecture (e.g. narrowing the
register file of an accumulator machine) are pinned as
``{"not_applicable": <reason>}`` entries.

Regenerate the golden file after an intentional change with::

    PYTHONPATH=src python - <<'EOF'
    import json, pathlib
    from tests.explore.test_transform_locality import locality_profile, ARCHES
    golden = {arch: locality_profile(arch) for arch in ARCHES}
    path = pathlib.Path("tests/explore/golden_locality.json")
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    EOF
"""

import json
import pathlib

import pytest

from repro.arch import ARCHITECTURES, description_for
from repro.errors import ReproError
from repro.explore import transforms
from repro.isdl import ast, fingerprint_delta

ARCHES = sorted(ARCHITECTURES)
GOLDEN = pathlib.Path(__file__).parent / "golden_locality.json"

_SET_FIELDS = (
    "tokens_changed",
    "nonterminals_changed",
    "storages_changed",
    "aliases_changed",
    "changed_ops",
    "added_ops",
    "removed_ops",
)
_FLAG_FIELDS = (
    "header_changed",
    "format_changed",
    "fields_changed",
    "constraints_changed",
    "attributes_changed",
    "op_order_changed",
)


def _profile(delta):
    """Serialize a delta as the sorted set of units in each category.

    Empty categories are omitted so the golden file reads as "what this
    transform touches", and the derived reuse predicates are pinned too.
    """
    out = {}
    for name in _FLAG_FIELDS:
        if getattr(delta, name):
            out[name] = True
    for name in _SET_FIELDS:
        units = getattr(delta, name)
        if units:
            out[name] = sorted(
                ":".join(u) if isinstance(u, tuple) else u for u in units
            )
    out["predicates"] = {
        "instruction_set_unchanged": delta.instruction_set_unchanged,
        "global_env_unchanged": delta.global_env_unchanged,
        "storage_env_unchanged": delta.storage_env_unchanged,
        "sim_env_unchanged": delta.sim_env_unchanged,
        "assembly_reusable": delta.assembly_reusable,
    }
    return out


def _mutations(desc):
    """Deterministic parameterization of every transform for ``desc``."""
    first = desc.fields[0]
    last = desc.fields[-1]
    busiest = max(desc.fields, key=lambda f: len(f.operations))
    op0 = first.operations[0]
    memories = [
        s for s in desc.storages.values()
        if s.addressed and (s.depth or 0) >= 2
    ]
    rf = desc.storages.get("RF")

    def drop_two(d):
        if len(busiest.operations) < 3:
            raise ReproError("fewer than three operations in any field")
        return transforms.drop_operations(
            d,
            [(busiest.name, op.name) for op in busiest.operations[-2:]],
        )

    def narrow(d):
        if rf is None:
            # let the transform raise its own diagnostic
            return transforms.narrow_register_file(d, 4)
        return transforms.narrow_register_file(d, rf.depth // 2)

    return {
        "drop_operation": lambda d: transforms.drop_operation(
            d, first.name, first.operations[-1].name
        ),
        "drop_operations": drop_two,
        "drop_field": lambda d: transforms.drop_field(d, first.name),
        "set_operation_timing": lambda d: transforms.set_operation_timing(
            d, first.name, op0.name,
            costs=ast.Costs(op0.costs.cycle + 1, op0.costs.stall,
                            op0.costs.size),
        ),
        "add_constraint": lambda d: transforms.add_constraint(
            d, first.name, first.operations[0].name,
            last.name, last.operations[-1].name,
        ),
        "resize_memory": lambda d: transforms.resize_memory(
            d, memories[0].name, memories[0].depth // 2
        ),
        "narrow_register_file": narrow,
    }


def locality_profile(arch):
    desc = description_for(arch)
    out = {}
    for name, mutate in sorted(_mutations(desc).items()):
        try:
            child = mutate(desc)
        except (ReproError, ValueError) as exc:
            out[name] = {"not_applicable": str(exc)}
            continue
        out[name] = _profile(fingerprint_delta(desc, child))
    return out


def _load_golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("arch", ARCHES)
def test_transform_locality_matches_golden(arch):
    golden = _load_golden()
    assert arch in golden, f"golden_locality.json has no entry for {arch}"
    assert locality_profile(arch) == golden[arch]


def test_golden_covers_every_transform():
    golden = _load_golden()
    expected = set(_mutations(description_for("risc16")))
    for arch, entries in golden.items():
        assert set(entries) == expected, arch


def test_every_transform_renames_so_header_always_changes():
    """All transforms rename the child; reuse predicates must therefore
    never depend on the header digest."""
    golden = _load_golden()
    for arch, entries in golden.items():
        for name, profile in entries.items():
            if "not_applicable" in profile:
                continue
            assert profile.get("header_changed"), (arch, name)
