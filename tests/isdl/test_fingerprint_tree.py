"""Tests for the per-unit fingerprint tree and the structural delta."""

import dataclasses

import pytest

from repro.arch import ARCHITECTURES, description_for
from repro.explore import transforms
from repro.isdl import (
    ast,
    fingerprint,
    fingerprint_delta,
    fingerprint_tree,
    print_description,
)
from repro.isdl.fingerprint import clear_fingerprint_memo, fingerprint_text
from repro.isdl.printer import description_units, operation_lines

ARCHES = sorted(ARCHITECTURES)


# ----------------------------------------------------------------------
# Tree construction
# ----------------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHES)
def test_root_is_the_whole_document_digest(arch):
    """The root must stay byte-identical to the historical fingerprint:
    it is the wire-format identity for dedup, coalescing, and routing."""
    desc = description_for(arch)
    tree = fingerprint_tree(desc)
    assert tree.root == fingerprint_text(print_description(desc))
    assert fingerprint(desc) == tree.root


@pytest.mark.parametrize("arch", ARCHES)
def test_unit_fragments_reassemble_the_document(arch):
    desc = description_for(arch)
    lines = []
    for _kind, _key, unit_lines in description_units(desc):
        lines += unit_lines
    assert "\n".join(lines) + "\n" == print_description(desc)


@pytest.mark.parametrize("arch", ARCHES)
def test_tree_covers_every_unit(arch):
    desc = description_for(arch)
    tree = fingerprint_tree(desc)
    assert set(tree.tokens) == set(desc.tokens)
    assert set(tree.nonterminals) == set(desc.nonterminals)
    assert set(tree.storages) == set(desc.storages)
    assert set(tree.aliases) == set(desc.aliases)
    assert set(tree.operations) == {
        (fld.name, op.name) for fld, op in desc.operations()
    }
    assert tree.fields == tuple(fld.name for fld in desc.fields)
    assert tree.op_order == tuple(
        (fld.name, op.name) for fld, op in desc.operations()
    )


@pytest.mark.parametrize("arch", ARCHES)
def test_operation_unit_fingerprint_matches_tree(arch):
    desc = description_for(arch)
    tree = fingerprint_tree(desc)
    for fld, op in desc.operations():
        assert tree.operations[(fld.name, op.name)] == fingerprint_text(
            "\n".join(operation_lines(op))
        )


def test_operation_digest_is_position_independent():
    """An untouched operation keeps its digest when a sibling is dropped,
    even though its byte offset in the document moves."""
    desc = description_for("risc16")
    fld = desc.fields[0]
    victim = fld.operations[0].name
    child = transforms.drop_operation(desc, fld.name, victim)
    parent_tree = fingerprint_tree(desc)
    child_tree = fingerprint_tree(child)
    for key, digest in child_tree.operations.items():
        assert parent_tree.operations[key] == digest


# ----------------------------------------------------------------------
# Memoization
# ----------------------------------------------------------------------


def test_tree_memoized_per_object():
    desc = description_for("risc16")
    assert fingerprint_tree(desc) is fingerprint_tree(desc)


def test_clear_memo_forces_rebuild():
    desc = description_for("risc16")
    first = fingerprint_tree(desc)
    clear_fingerprint_memo()
    second = fingerprint_tree(desc)
    assert first is not second
    assert first == second


def test_memo_does_not_leak_across_equal_objects():
    """Two structurally equal but distinct objects get their own (equal)
    trees — identity keying must never alias them."""
    a = description_for("risc16")
    b = dataclasses.replace(a)
    assert a is not b
    assert fingerprint_tree(a) == fingerprint_tree(b)
    assert fingerprint_tree(a) is not fingerprint_tree(b)


# ----------------------------------------------------------------------
# Delta
# ----------------------------------------------------------------------


def test_delta_of_identical_descriptions():
    desc = description_for("risc16")
    delta = fingerprint_delta(desc, description_for("risc16"))
    assert delta.identical
    assert not delta.touched_ops
    assert delta.instruction_set_unchanged
    assert delta.global_env_unchanged
    assert delta.storage_env_unchanged
    assert delta.sim_env_unchanged
    assert delta.assembly_reusable


def test_delta_names_a_dropped_operation():
    desc = description_for("risc16")
    fld = desc.fields[0]
    victim = fld.operations[-1].name
    child = transforms.drop_operation(desc, fld.name, victim)
    delta = fingerprint_delta(desc, child)
    assert delta.removed_ops == {(fld.name, victim)}
    assert not delta.changed_ops and not delta.added_ops
    assert not delta.op_order_changed
    assert delta.global_env_unchanged
    assert delta.storage_env_unchanged
    # dropping an op changes the set, so assembly must re-run
    assert not delta.assembly_reusable


def test_delta_names_a_retimed_operation():
    desc = description_for("risc16")
    fld, op = next((f, o) for f, o in desc.operations() if o.action)
    child = transforms.set_operation_timing(
        desc, fld.name, op.name,
        costs=ast.Costs(op.costs.cycle + 1, op.costs.stall, op.costs.size),
    )
    delta = fingerprint_delta(desc, child)
    assert delta.changed_ops == {(fld.name, op.name)}
    assert not delta.removed_ops and not delta.added_ops
    assert delta.op_unchanged(fld.name, fld.operations[0].name) or (
        fld.operations[0].name == op.name
    )
    assert delta.sim_env_unchanged


def test_delta_names_a_resized_storage():
    desc = description_for("risc16")
    mem = next(
        s for s in desc.storages.values()
        if s.addressed and (s.depth or 0) >= 32
    )
    child = transforms.resize_memory(desc, mem.name, mem.depth // 2)
    delta = fingerprint_delta(desc, child)
    assert delta.storages_changed == {mem.name}
    assert not delta.touched_ops
    assert delta.global_env_unchanged
    assert not delta.storage_env_unchanged
    assert not delta.sim_env_unchanged


def test_delta_sees_added_constraints():
    desc = description_for("spam")
    ops = list(desc.operations())
    (fa, oa), (fb, ob) = ops[0], ops[-1]
    child = transforms.add_constraint(desc, fa.name, oa.name, fb.name,
                                      ob.name)
    delta = fingerprint_delta(desc, child)
    assert delta.constraints_changed
    assert not delta.touched_ops
    assert delta.sim_env_unchanged  # constraints are not simulated
    assert not delta.assembly_reusable  # but the compiler reads them


def test_delta_detects_operation_reordering():
    """Two descriptions with the same operations in different document
    order share all unit digests — only the order flag may tell the
    assembly-reuse predicate they differ."""
    desc = description_for("risc16")
    fld = desc.fields[0]
    reordered = dataclasses.replace(
        desc,
        fields=[ast.Field(fld.name, tuple(reversed(fld.operations)),
                          fld.location)]
        + list(desc.fields[1:]),
    )
    delta = fingerprint_delta(desc, reordered)
    assert not delta.touched_ops
    assert delta.op_order_changed
    assert not delta.instruction_set_unchanged
    assert not delta.assembly_reusable


def test_delta_rename_only_touches_the_header():
    desc = description_for("risc16")
    renamed = dataclasses.replace(desc, name="RISC16B")
    delta = fingerprint_delta(desc, renamed)
    assert delta.header_changed
    assert not delta.identical
    assert not delta.touched_ops
    assert delta.sim_env_unchanged
    assert delta.assembly_reusable


def test_delta_accepts_trees_directly():
    desc = description_for("risc16")
    tree = fingerprint_tree(desc)
    delta = fingerprint_delta(tree, tree)
    assert delta.identical
