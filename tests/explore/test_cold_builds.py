"""Every candidate is built from its own description.

The artifact cache keys each artifact by the whole fingerprint of the
description it was built from.  A cache that has already gated and
measured a parent therefore holds nothing that can answer a lookup for
one of its children: the child's gate verdict, evaluation, signature
table and synthesis equal what a fresh cache returns, and the child
misses every artifact kind exactly as often as its parent did.  A key
that left out part of the description would let a child read its
parent's artifact, and these tests would see it.
"""

import dataclasses

import pytest

from repro.analyze import check_static
from repro.arch import ARCHITECTURES, description_for
from repro.cache import ArtifactCache
from repro.codegen.kernels import resolve_kernels
from repro.encoding.signature import SignatureTable
from repro.explore import evaluate, transforms
from repro.explore.metrics import _CHECK_FIELDS
from repro.hgen import synthesize
from repro.isdl import ast, fingerprint

ARCHS = sorted(ARCHITECTURES)
BACKENDS = ("xsim", "compiled")


@pytest.fixture(scope="module")
def kernels():
    return resolve_kernels(["sum:10", "blockmove:8"])


def retimed(desc, field_name, op_name):
    op = desc.operation(field_name, op_name)
    return transforms.set_operation_timing(
        desc, field_name, op_name,
        costs=ast.Costs(op.costs.cycle + 1, op.costs.stall, op.costs.size),
    )


def drop_unused(desc, kernels):
    """Drop an operation the kernels never execute, keeping the child
    feasible."""
    measured = evaluate(desc, kernels)
    assert measured.feasible, measured.reason
    for fname, oname in sorted(measured.stats.unused_operations(desc)):
        child = transforms.drop_operation(desc, fname, oname)
        if evaluate(child, kernels).feasible:
            return child
    pytest.fail("no droppable unused operation found")


#: children of RISC16, one per kind of change: an operation's costs, the
#: operation that ends every kernel, the operation set, the name alone,
#: and a storage every operation reads
MUTATIONS = {
    "retime-add": lambda desc, kernels: retimed(desc, "EX", "add"),
    "retime-halt": lambda desc, kernels: retimed(desc, "EX", "halt"),
    "drop-unused": drop_unused,
    "rename": lambda desc, kernels: dataclasses.replace(desc, name="RISC16R"),
    "narrow-rf": lambda desc, kernels: transforms.narrow_register_file(
        desc, 4
    ),
}


def measured_fields(evaluation):
    return (evaluation.fingerprint, evaluation.stats) + tuple(
        getattr(evaluation, name) for name in _CHECK_FIELDS
    )


def gate_and_evaluate(desc, kernels, cache, backend):
    verdict = check_static(desc, cache=cache)
    assert verdict.ok(), verdict
    return verdict, evaluate(desc, kernels, cache=cache, sim_backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_child_after_parent_equals_fresh_cache(mutation, backend, kernels):
    parent = description_for("risc16")
    child = MUTATIONS[mutation](parent, kernels)
    assert fingerprint(child) != fingerprint(parent)
    shared = ArtifactCache()
    gate_and_evaluate(parent, kernels, shared, backend)
    verdict, evaluation = gate_and_evaluate(child, kernels, shared, backend)
    fresh_verdict, fresh = gate_and_evaluate(
        child, kernels, ArtifactCache(), backend
    )
    assert evaluation.feasible, evaluation.reason
    assert verdict == fresh_verdict
    assert measured_fields(evaluation) == measured_fields(fresh)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_child_misses_every_artifact_its_parent_built(mutation, kernels):
    parent = description_for("risc16")
    child = MUTATIONS[mutation](parent, kernels)
    cache = ArtifactCache()
    evaluate(parent, kernels, cache=cache)
    parent_misses = dict(cache.stats.misses_by_kind)
    parent_hits = dict(cache.stats.hits_by_kind)
    evaluate(child, kernels, cache=cache)
    child_misses = {
        kind: count - parent_misses.get(kind, 0)
        for kind, count in cache.stats.misses_by_kind.items()
    }
    child_hits = {
        kind: count - parent_hits.get(kind, 0)
        for kind, count in cache.stats.hits_by_kind.items()
    }
    assert child_misses == parent_misses
    assert child_hits == parent_hits


@pytest.mark.parametrize("arch", ARCHS)
def test_signature_table_after_parent_equals_fresh_build(arch):
    parent = description_for(arch)
    first = parent.fields[0]
    child = retimed(parent, first.name, first.operations[0].name)
    cache = ArtifactCache()
    parent_table = cache.signature_table(parent)
    table = cache.signature_table(child)
    fresh = SignatureTable(child)
    assert table is not parent_table
    assert set(table.operation_signatures) == set(fresh.operation_signatures)
    for key, sig in fresh.operation_signatures.items():
        assert table.operation_signatures[key].symbols == sig.symbols, key
    assert set(table.option_signatures) == set(fresh.option_signatures)
    for key, sig in fresh.option_signatures.items():
        assert table.option_signatures[key].symbols == sig.symbols, key


@pytest.mark.parametrize("arch", ARCHS)
def test_synthesis_after_parent_equals_fresh_build(arch):
    parent = description_for(arch)
    first = parent.fields[0]
    child = retimed(parent, first.name, first.operations[0].name)
    cache = ArtifactCache()
    parent_model = cache.synthesized(parent)
    model = cache.synthesized(child)
    fresh = synthesize(child)
    assert model is not parent_model
    assert model.verilog == fresh.verilog
    assert model.verilog_lines == fresh.verilog_lines
    assert model.die_size == fresh.die_size
    assert model.core_die_size == fresh.core_die_size
    assert model.cycle_ns == fresh.cycle_ns
    assert model.cliques == fresh.cliques
    assert model.allocation == fresh.allocation


def test_rename_only_child_measures_as_its_parent(kernels):
    # the name is part of the fingerprint, and of nothing measured
    parent = description_for("risc16")
    child = MUTATIONS["rename"](parent, kernels)
    cache = ArtifactCache()
    a = evaluate(parent, kernels, cache=cache)
    b = evaluate(child, kernels, cache=cache)
    assert a.fingerprint != b.fingerprint
    for name in _CHECK_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.stats == b.stats
    assert cache.stats.hits == 0


def test_dropping_an_unused_operation_keeps_every_cycle(kernels):
    # fewer operations change the hardware, never what the kernels execute
    parent = description_for("risc16")
    child = MUTATIONS["drop-unused"](parent, kernels)
    a = evaluate(parent, kernels)
    b = evaluate(child, kernels)
    assert len(list(child.operations())) == len(list(parent.operations())) - 1
    assert b.per_kernel_cycles == a.per_kernel_cycles
    assert (b.cycles, b.stall_cycles) == (a.cycles, a.stall_cycles)
    assert b.stats == a.stats
    assert b.die_size != a.die_size
