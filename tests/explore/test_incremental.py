"""Incremental (delta-aware) builds must be indistinguishable from cold ones.

The contract under test: threading a ``parent`` description through the
evaluation pipeline changes *cost*, never *results*.  Every test here
builds the same child twice — once cold, once incrementally off its
parent — and asserts byte/value equality, then checks that the reuse
actually fired (otherwise these tests would pass vacuously).
"""

import dataclasses
import importlib

import pytest

from repro import obs
from repro.analyze import check_static
from repro.arch import description_for
from repro.cache import ArtifactCache
from repro.codegen import Cond, KernelBuilder, Opcode
from repro.encoding.signature import SignatureTable, decode_preserved
from repro.explore import evaluate, transforms
from repro.explore.metrics import INCREMENTAL_CHECK_ENV
from repro.hgen import synthesize
from repro.isdl import ast, fingerprint, fingerprint_delta

# the submodule; the package's ``fingerprint`` is the function
fingerprint_module = importlib.import_module("repro.isdl.fingerprint")

PUBLIC_FIELDS = (
    "feasible", "reason", "cycles", "stall_cycles", "cycle_ns",
    "die_size", "core_die_size", "power_mw", "verilog_lines",
    "per_kernel_cycles",
)


def sum_kernel(n=6, name="sum"):
    K = KernelBuilder(name)
    cnt = K.li(n)
    acc = K.li(0)
    K.label("loop")
    K.binary_into(acc, Opcode.ADD, acc, cnt)
    K.binary_into(cnt, Opcode.SUB, cnt, 1)
    K.cbr(Cond.NE, cnt, 0, "loop")
    K.store(K.li(0), acc)
    return K.build()


def assert_same_evaluation(cold, incr):
    for name in PUBLIC_FIELDS:
        assert getattr(cold, name) == getattr(incr, name), name


def retimed_child(desc, field_name, op_name):
    op = desc.operation(field_name, op_name)
    return transforms.set_operation_timing(
        desc, field_name, op_name,
        costs=ast.Costs(op.costs.cycle + 1, op.costs.stall, op.costs.size),
    )


def drop_unused_child(desc, kernels):
    """Drop an operation the kernels never execute, keeping the child
    feasible — the mutation that satisfies every reuse predicate at once."""
    parent_eval = evaluate(desc, kernels)
    assert parent_eval.feasible
    for fname, oname in sorted(parent_eval.stats.unused_operations(desc)):
        child = transforms.drop_operation(desc, fname, oname)
        if evaluate(child, kernels).feasible:
            return child
    pytest.fail("no droppable unused operation found")


# ----------------------------------------------------------------------
# Artifact-level equality
# ----------------------------------------------------------------------


def test_sigtable_row_carry_equals_cold():
    desc = description_for("risc16")
    child = retimed_child(desc, "EX", "add")
    parent_table = SignatureTable(desc)
    delta = fingerprint_delta(desc, child)
    warm = SignatureTable(child, reuse_from=(parent_table, delta))
    cold = SignatureTable(child)
    assert warm.reuse_counts["reused"] > 0
    assert set(warm.operation_signatures) == set(cold.operation_signatures)
    for key, sig in cold.operation_signatures.items():
        assert warm.operation_signatures[key].symbols == sig.symbols, key
    for key, sig in cold.option_signatures.items():
        assert warm.option_signatures[key].symbols == sig.symbols, key


def test_incremental_synthesis_equals_cold():
    desc = description_for("spam2")
    child = retimed_child(
        desc, desc.fields[0].name, desc.fields[0].operations[0].name
    )
    parent_model = synthesize(desc)
    delta = fingerprint_delta(desc, child)
    warm = synthesize(child, reuse_from=(parent_model, delta))
    cold = synthesize(child)
    assert warm.reuse_counts.get("matrix_entries_copied", 0) > 0
    assert warm.reuse_counts.get("components_reused", 0) > 0
    assert warm.verilog == cold.verilog
    assert warm.die_size == cold.die_size
    assert warm.core_die_size == cold.core_die_size
    assert warm.cycle_ns == cold.cycle_ns
    assert warm.cliques == cold.cliques
    assert warm.allocation == cold.allocation


def test_decode_preserved_logic():
    desc = description_for("risc16")
    table = SignatureTable(desc)
    child = transforms.drop_operation(desc, "EX", "xor_")
    delta = fingerprint_delta(desc, child)
    child_table = SignatureTable(child)
    add_word = table.operation("EX", "add").constant_value
    xor_word = table.operation("EX", "xor_").constant_value
    # a word decoding to an untouched op is provably preserved
    assert decode_preserved(child_table, child, [add_word], delta)
    # a word that no longer decodes in the child is not
    assert not decode_preserved(child_table, child, [xor_word], delta)
    # any global-environment change voids the proof outright
    narrowed = transforms.narrow_register_file(desc, 4)
    ndelta = fingerprint_delta(desc, narrowed)
    ntable = SignatureTable(narrowed)
    assert not decode_preserved(ntable, narrowed, [add_word], ndelta)


# ----------------------------------------------------------------------
# Evaluation-level equality
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["xsim", "block"])
def test_incremental_evaluation_equals_cold(backend):
    desc = description_for("risc16")
    kernels = [sum_kernel()]
    child = retimed_child(desc, "EX", "halt")
    cold = evaluate(child, kernels, sim_backend=backend)
    cache = ArtifactCache()
    evaluate(desc, kernels, cache=cache, sim_backend=backend)
    incr = evaluate(child, kernels, cache=cache, sim_backend=backend,
                    parent=desc)
    assert_same_evaluation(cold, incr)
    assert cache.stats.incremental_builds["sigtable"] >= 1
    assert cache.stats.incremental_builds["synth"] >= 1


def test_sim_result_adoption_on_unused_drop():
    desc = description_for("risc16")
    kernels = [sum_kernel()]
    child = drop_unused_child(desc, kernels)
    cold = evaluate(child, kernels)
    cache = ArtifactCache()
    evaluate(desc, kernels, cache=cache)
    incr = evaluate(child, kernels, cache=cache, parent=desc)
    assert_same_evaluation(cold, incr)
    # the simulation itself was adopted from the parent, not re-run
    assert cache.stats.incremental_builds["sim"] >= 1
    assert cache.stats.units_reused["sim"] >= 1


def test_program_adoption_on_rename_only_child():
    desc = description_for("risc16")
    kernels = [sum_kernel()]
    child = dataclasses.replace(desc, name="RISC16R")
    cold = evaluate(child, kernels)
    cache = ArtifactCache()
    evaluate(desc, kernels, cache=cache)
    incr = evaluate(child, kernels, cache=cache, parent=desc)
    assert_same_evaluation(cold, incr)
    assert cache.stats.incremental_builds["program"] >= 1


def test_block_backend_adopts_unchanged_blocks():
    """A final-block-only mutation lets every other block's table be
    carried over; the obs counter proves the adoption happened."""
    desc = description_for("risc16")
    kernels = [sum_kernel()]
    child = retimed_child(desc, "EX", "halt")
    cold = evaluate(child, kernels, sim_backend="block")
    obs.enable()
    try:
        cache = ArtifactCache()
        evaluate(desc, kernels, cache=cache, sim_backend="block")
        with obs.capture() as cap:
            incr = evaluate(child, kernels, cache=cache,
                            sim_backend="block", parent=desc)
        adopted = cap.snapshot.counters.get("blocksim.blocks_adopted", 0)
    finally:
        obs.disable(reset=True)
    assert_same_evaluation(cold, incr)
    assert adopted > 0


@pytest.mark.parametrize("backend", ["compiled", "block"])
def test_one_delta_per_incremental_evaluation(backend, monkeypatch):
    """The gate's signature table, each kernel's program, synthesis and
    simulator adoption all ask for the parent → child delta; it is
    computed once for the pair."""
    desc = description_for("risc16")
    kernels = [sum_kernel(), sum_kernel(4, name="sum4")]
    child = retimed_child(desc, "EX", "halt")
    cache = ArtifactCache()
    check_static(desc, cache=cache)
    evaluate(desc, kernels, cache=cache, sim_backend=backend)
    computed = []
    diff_trees = fingerprint_module._diff_trees

    def counting(parent_tree, child_tree):
        computed.append(child_tree.root)
        return diff_trees(parent_tree, child_tree)

    monkeypatch.setattr(fingerprint_module, "_diff_trees", counting)
    assert check_static(child, cache=cache, parent=desc).ok()
    evaluate(child, kernels, cache=cache, sim_backend=backend, parent=desc)
    assert computed == [fingerprint(child)]
    # the stages did build off the parent
    assert cache.stats.incremental_builds["sigtable"] == 1
    assert cache.stats.incremental_builds["synth"] == 1


def test_checked_incremental_mode(monkeypatch):
    """REPRO_INCREMENTAL_CHECK shadows every incremental build with a cold
    one and asserts equality — it must pass silently on correct reuse."""
    monkeypatch.setenv(INCREMENTAL_CHECK_ENV, "1")
    desc = description_for("risc16")
    kernels = [sum_kernel()]
    child = retimed_child(desc, "EX", "add")
    cache = ArtifactCache()
    evaluate(desc, kernels, cache=cache)
    incr = evaluate(child, kernels, cache=cache, parent=desc)
    assert incr.feasible


def test_parent_is_only_a_hint():
    """Same cache key, same result, with or without the parent hint."""
    desc = description_for("risc16")
    kernels = [sum_kernel()]
    child = retimed_child(desc, "EX", "add")
    with_hint = ArtifactCache()
    evaluate(desc, kernels, cache=with_hint)
    a = evaluate(child, kernels, cache=with_hint, parent=desc)
    without = ArtifactCache()
    evaluate(desc, kernels, cache=without)
    b = evaluate(child, kernels, cache=without)
    assert_same_evaluation(a, b)
    assert a.fingerprint == b.fingerprint


def test_cached_stats_not_mutated_by_merge():
    """Merging per-kernel stats must copy — a second evaluation pulling
    the same cached sim result has to see pristine numbers."""
    desc = description_for("risc16")
    kernels = [sum_kernel(), sum_kernel(4, name="sum4")]
    cache = ArtifactCache()
    first = evaluate(desc, kernels, cache=cache, memoize=False)
    second = evaluate(desc, kernels, cache=cache, memoize=False)
    assert_same_evaluation(first, second)
    assert first.stats == second.stats


def test_stats_report_breaks_out_incremental_reuse():
    desc = description_for("risc16")
    kernels = [sum_kernel()]
    cache = ArtifactCache()
    evaluate(desc, kernels, cache=cache)
    child = retimed_child(desc, "EX", "add")
    evaluate(child, kernels, cache=cache, parent=desc)
    report = cache.stats.report()
    assert "incremental:" in report
    assert "sigtable" in report
    assert "units reused" in report
