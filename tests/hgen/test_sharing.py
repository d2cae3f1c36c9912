"""Tests for the resource-sharing matrix (paper §4.1.2, Fig. 5 rules)."""

import dataclasses

import pytest

from repro.arch import description_for
from repro.explore import transforms
from repro.isdl import ast
from repro.hgen.nodes import extract_nodes
from repro.hgen.sharing import (
    SharingAnalysis,
    classes_compatible,
    merged_class,
)


@pytest.fixture(scope="module")
def spam_nodes(spam_desc):
    return extract_nodes(spam_desc)


@pytest.fixture(scope="module")
def spam_analysis(spam_desc, spam_nodes):
    return SharingAnalysis(spam_desc, spam_nodes)


def find(nodes, owner, unit_class):
    for node in nodes:
        if node.node_id.owner[:2] == owner and node.unit_class == unit_class:
            return node
    raise AssertionError(f"no {unit_class} node for {owner}")


def test_rule2_different_tasks_never_share(spam_analysis, spam_nodes):
    adder = find(spam_nodes, ("INT", "add"), "adder")
    shifter = find(spam_nodes, ("INT", "shl"), "shifter")
    assert not spam_analysis.compatible(adder, shifter)


def test_rule3_same_field_shares(spam_analysis, spam_nodes):
    add = find(spam_nodes, ("INT", "add"), "adder")
    sub = find(spam_nodes, ("INT", "sub"), "adder")
    assert spam_analysis.compatible(add, sub)


def test_rule1_same_operation_never_shares(spam_analysis, spam_nodes):
    # fcmp computes two comparator results concurrently (FEQ and FLT).
    fcmp_nodes = [
        n for n in spam_nodes
        if n.node_id.owner == ("FP1", "fcmp")
        and n.unit_class == "fp_comparator"
    ]
    assert len(fcmp_nodes) == 2
    assert not spam_analysis.compatible(fcmp_nodes[0], fcmp_nodes[1])


def test_rule4_different_fields_do_not_share(spam_analysis, spam_nodes):
    mv1 = find(spam_nodes, ("MV1", "mov"), "bus")
    mv2 = find(spam_nodes, ("MV2", "mov"), "bus")
    assert not spam_analysis.compatible(mv1, mv2)


def test_rule4_constraint_enables_cross_field_sharing(
    spam_analysis, spam_nodes
):
    # forbid LSU.st & MV3.mov makes the store's RF read port / the move bus
    # mutually exclusive with MV3 — the paper's §4.1.1 example.
    assert spam_analysis.owners_exclusive(("LSU", "st"), ("MV3", "mov"))
    assert spam_analysis.owners_exclusive(("FP2", "fdiv"), ("INT", "jmp"))
    assert not spam_analysis.owners_exclusive(("LSU", "st"), ("MV1", "mov"))


def test_constraints_can_be_disabled(spam_desc, spam_nodes):
    analysis = SharingAnalysis(spam_desc, spam_nodes, use_constraints=False)
    assert not analysis.owners_exclusive(("LSU", "st"), ("MV3", "mov"))


def test_nt_options_of_same_param_share(risc16_desc):
    nodes = extract_nodes(risc16_desc)
    analysis = SharingAnalysis(risc16_desc, nodes)
    reg_port = next(
        n for n in nodes
        if n.node_id.owner == ("EX", "add", "b", "reg")
        and n.unit_class == "read_port:RF"
    )
    # reg option's read port vs the op's own 'a' operand port: same
    # operation, concurrent -> not shareable.
    own_port = next(
        n for n in nodes
        if n.node_id.owner == ("EX", "add")
        and n.unit_class == "read_port:RF"
    )
    assert not analysis.compatible(reg_port, own_port)


def test_matrix_is_symmetric_with_zero_diagonal(risc16_desc):
    nodes = extract_nodes(risc16_desc)[:40]
    analysis = SharingAnalysis(risc16_desc, nodes)
    matrix = analysis.matrix()
    n = len(nodes)
    for i in range(n):
        assert matrix[i][i] == 0
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]


def _matrix_rows(matrix):
    return [
        sum(1 << j for j, entry in enumerate(row) if entry) for row in matrix
    ]


def _require_add_or_sub(spam):
    """SPAM plus ``require INT.add | INT.sub``: false on every two-field
    selection without INT, so it makes any two operations of two other
    fields exclusive."""
    expr = ast.COr(ast.COpRef("INT", "add"), ast.COpRef("INT", "sub"))
    constraint = ast.Constraint(expr, text="require INT.add | INT.sub")
    return dataclasses.replace(
        spam, name=f"{spam.name}+r",
        constraints=list(spam.constraints) + [constraint],
    )


#: SPAM with a constraint added (a ``forbid`` on two operations, and a
#: ``require`` that also decides the pairs of fields it does not name),
#: and SPAM children whose nodes or constraints differ from its own: a
#: field loses an operation, a whole field goes with the two constraints
#: naming it, INT loses ``jmp`` and ``halt`` with the constraint on
#: ``jmp``, and the register file narrows
SPAM_VARIANTS = {
    "spam+c": lambda spam: transforms.add_constraint(
        spam, "FP1", "fadd", "FP2", "fmul"
    ),
    "spam+require": _require_add_or_sub,
    "spam-fadd": lambda spam: transforms.drop_operation(spam, "FP1", "fadd"),
    "spam-mv3": lambda spam: transforms.drop_field(spam, "MV3"),
    "spam-int-tail": lambda spam: transforms.drop_operations(
        spam,
        [("INT", op.name) for op in spam.field_named("INT").operations[-2:]],
    ),
    "spam-rf4": lambda spam: transforms.narrow_register_file(spam, 4),
}


def _sharing_description(name):
    if name in SPAM_VARIANTS:
        return SPAM_VARIANTS[name](description_for("spam"))
    return description_for(name)


def test_adjacency_matches_matrix():
    # the bitset rows built per operation against the per-pair
    # reference, on every node of every architecture and SPAM variant,
    # with and without constraints
    for name in ("acc8", "risc16", "spam", "spam2", *SPAM_VARIANTS):
        desc = _sharing_description(name)
        for use_constraints in (True, False):
            nodes = extract_nodes(desc)
            analysis = SharingAnalysis(desc, nodes, use_constraints)
            matrix = SharingAnalysis(desc, nodes, use_constraints).matrix()
            expected = _matrix_rows(matrix)
            assert analysis.adjacency() == expected, (name, use_constraints)


def _edges(desc):
    rows = SharingAnalysis(desc, extract_nodes(desc)).adjacency()
    return sum(row.bit_count() for row in rows) // 2


def test_require_on_one_field_excludes_pairs_of_other_fields(spam_desc):
    # the require is false on any selection of two other fields, so
    # their operations become exclusive and share far more
    assert _edges(_require_add_or_sub(spam_desc)) > 2 * _edges(spam_desc)


def test_class_compatibility_and_merge():
    assert classes_compatible("adder", "adder")
    assert classes_compatible("comparator", "adder")  # subset rule
    assert not classes_compatible("adder", "multiplier")
    assert merged_class("comparator", "adder") == "adder"
    assert merged_class("adder", "comparator") == "adder"
    with pytest.raises(ValueError):
        merged_class("adder", "shifter")


def test_memory_ports_share_only_same_storage(spam_desc, spam_nodes):
    analysis = SharingAnalysis(spam_desc, spam_nodes)
    dm_read = next(
        n for n in spam_nodes if n.unit_class == "read_port:DM"
    )
    rf_read = next(
        n for n in spam_nodes
        if n.unit_class == "read_port:RF"
        and n.node_id.owner[:2] != dm_read.node_id.owner[:2]
    )
    assert not analysis.compatible(dm_read, rf_read)
