"""The unit-text memo behind fingerprint trees.

A child description shares every unit its transform did not touch with
its parent, so a tree built from memoized unit texts must equal one
built cold, render only the touched units, stay within its bound, and
agree across threads.
"""

import copy
import gc
import importlib
import sys
import threading

import pytest

from repro.arch import ARCHITECTURES, description_for
from repro.errors import ReproError
from repro.isdl import fingerprint_tree, print_description
from repro.isdl import printer
from repro.isdl.fingerprint import clear_fingerprint_memo, fingerprint_text

from tests.explore.test_transform_locality import _mutations

# the submodule; the package's ``fingerprint`` is the function
fingerprint_module = importlib.import_module("repro.isdl.fingerprint")

ARCHES = sorted(ARCHITECTURES)


def _chain(arch):
    """The base description, each locality-golden transform applied to
    it, and those transforms applied one after another."""
    base = description_for(arch)
    descriptions = [base]
    current = base
    for _name, mutate in sorted(_mutations(base).items()):
        for source in [base] if current is base else [base, current]:
            try:
                child = mutate(source)
            except (ReproError, ValueError, KeyError):
                continue
            descriptions.append(child)
            if source is current:
                current = child
    return descriptions


def _cold_tree(desc):
    """The tree of a copy sharing no object with *desc*, built after
    the memo was emptied."""
    clone = copy.deepcopy(desc)
    clear_fingerprint_memo()
    return fingerprint_tree(clone)


@pytest.mark.parametrize("arch", ARCHES)
def test_memo_built_trees_equal_cold_builds(arch):
    descriptions = _chain(arch)
    assert len(descriptions) > 3
    clear_fingerprint_memo()
    warm = [fingerprint_tree(desc) for desc in descriptions]
    for desc, tree in zip(descriptions, warm):
        assert tree == _cold_tree(desc)
        assert tree.root == fingerprint_text(print_description(desc))


@pytest.fixture
def renders(monkeypatch):
    """Count the operation and storage texts rendered from now on."""
    counts = {"operation": 0, "storage": 0}

    def counting(kind, render):
        def wrapper(unit):
            counts[kind] += 1
            return render(unit)
        return wrapper

    monkeypatch.setattr(printer, "operation_lines",
                        counting("operation", printer.operation_lines))
    monkeypatch.setattr(printer, "_storage_lines",
                        counting("storage", printer._storage_lines))
    return counts


def _warm_parent(arch, renders):
    """*arch*'s description with its tree built; the render counts
    start after it."""
    parent = description_for(arch)
    clear_fingerprint_memo()
    fingerprint_tree(parent)
    renders.update(operation=0, storage=0)
    return parent


def test_resize_memory_child_renders_no_operation(renders):
    from repro.explore import transforms

    parent = _warm_parent("spam", renders)
    child = transforms.resize_memory(parent, "DM", 512)
    tree = fingerprint_tree(child)
    assert renders == {"operation": 0, "storage": 1}
    assert tree.root == fingerprint_text(print_description(child))


def test_retimed_child_renders_exactly_one_operation(renders):
    from repro.explore import transforms
    from repro.isdl import ast

    parent = _warm_parent("spam", renders)
    fld = parent.fields[0]
    op = fld.operations[0]
    child = transforms.set_operation_timing(
        parent, fld.name, op.name,
        costs=ast.Costs(op.costs.cycle + 1, op.costs.stall, op.costs.size),
    )
    tree = fingerprint_tree(child)
    assert renders == {"operation": 1, "storage": 0}
    assert tree.root == fingerprint_text(print_description(child))


def test_memo_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(fingerprint_module, "UNIT_MEMO_ENTRIES", 40)
    clear_fingerprint_memo()
    for arch in ARCHES:
        for desc in (description_for(arch), description_for(arch)):
            tree = fingerprint_tree(desc)
            assert len(fingerprint_module._UNIT_MEMO) <= 40
            assert tree.root == fingerprint_text(print_description(desc))


def test_entries_die_with_their_objects():
    """A pool worker unpickles fresh objects every round: the texts of a
    finished round must not stay behind in the memo."""
    clear_fingerprint_memo()
    desc = copy.deepcopy(description_for("spam"))
    fingerprint_tree(desc)
    units = (len(desc.tokens) + len(desc.nonterminals) + len(desc.storages)
             + len(desc.aliases) + len(list(desc.operations())))
    assert len(fingerprint_module._UNIT_MEMO) == units
    del desc
    gc.collect()
    assert len(fingerprint_module._UNIT_MEMO) == 0


def _children(parent):
    """One retimed child per operation of *parent*."""
    from repro.explore import transforms
    from repro.isdl import ast

    return [
        transforms.set_operation_timing(
            parent, fld.name, op.name,
            costs=ast.Costs(op.costs.cycle + 1, op.costs.stall,
                            op.costs.size),
        )
        for fld, op in parent.operations()
    ]


def test_threads_fingerprinting_one_parents_children_agree(monkeypatch):
    """Eight threads derive and fingerprint the same children of one
    parent at once, sharing its unit objects, with a bound small enough
    that they evict each other's entries."""
    parent = description_for("spam")
    expected = [fingerprint_text(print_description(child))
                for child in _children(parent)]
    monkeypatch.setattr(fingerprint_module, "UNIT_MEMO_ENTRIES", 48)
    clear_fingerprint_memo()
    barrier = threading.Barrier(8, timeout=30)
    roots = {}
    sizes = []

    def work(worker):
        children = _children(parent)
        order = list(range(len(children)))
        order = order[worker:] + order[:worker]
        barrier.wait()
        got = [None] * len(children)
        for index in order:
            got[index] = fingerprint_tree(children[index]).root
            # between inserts: an insert and its eviction hold the lock
            with fingerprint_module._UNIT_LOCK:
                sizes.append(len(fingerprint_module._UNIT_MEMO))
        roots[worker] = got

    threads = [threading.Thread(target=work, args=(n,), daemon=True)
               for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(roots) == 8
    for got in roots.values():
        assert got == expected
    assert max(sizes) <= 48
