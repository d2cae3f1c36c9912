"""Structural fingerprints for ISDL descriptions.

The exploration engine memoizes generated artifacts (signature tables,
simulator cores, assembled binaries, synthesized hardware models) by the
*content* of the machine description that produced them.  The fingerprint is
the SHA-256 of the canonical pretty-printed text: the printer is a pure
function of the AST and round-trips through the parser
(``parse(print(parse(s))) == parse(s)``), so two descriptions that denote
the same machine hash identically regardless of how they were constructed —
parsed from a file, built by :mod:`repro.arch`, or derived by an
exploration transform.

Beyond the whole-document digest (the *root*, which remains the identity
key for cache lookups and serve coalescing), this module computes a
fingerprint *tree*: one digest per description unit — each token,
non-terminal, storage, alias, and operation, plus the format,
constraint, and attribute sections — taken over the canonical printer's
per-unit fragments.  Two trees diff in one dictionary pass
(:func:`fingerprint_delta`), naming exactly which units a mutation
touched: the transform-locality golden pins that for every transform.
No artifact is rebuilt from a delta; every cache key is the root.

Fingerprints and trees are memoized per AST object: exploration
transforms are functional (they never mutate a description in place, and
untouched sub-objects keep their identity), so a ``Description`` object's
canonical text is immutable for its lifetime.  The same holds one level
down: the text of a token, non-terminal, storage, alias or operation
depends on that object alone, so a tree takes each such text, and its
digest, from a bounded identity memo and renders only the objects it has
not seen — a child renders the units its transform replaced, and shares
the rest with its parent.  The root is still hashed over the whole
document.  Callers that mutate a description or any of its units in
place must treat it as a *new* object (copy it) or the memos will serve
stale digests.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple, Union

from . import ast
from .printer import OBJECT_UNIT_KINDS, unit_sources


def fingerprint_text(text: str) -> str:
    """SHA-256 hex digest of canonical ISDL text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FingerprintTree:
    """Root digest plus per-unit digests of one description.

    Unit digests hash the unit's canonical text fragment alone, so they
    are position-independent: an operation that moves (because a sibling
    was dropped) keeps its digest.  The root is always the digest of the
    *full* document — never derived from the unit digests — so it stays
    byte-identical to the historical ``fingerprint()`` and to what remote
    peers compute from the wire text.
    """

    root: str
    header: str
    format: str
    tokens: Mapping[str, str]
    nonterminals: Mapping[str, str]
    storages: Mapping[str, str]
    aliases: Mapping[str, str]
    operations: Mapping[Tuple[str, str], str]
    fields: Tuple[str, ...]
    constraints: str
    attributes: str

    @property
    def op_order(self) -> Tuple[Tuple[str, str], ...]:
        """(field, op) pairs in document order."""
        return tuple(self.operations.keys())


_EMPTY = fingerprint_text("")

#: Most unit texts the unit memo holds.  An entry lives as long as its
#: object, so a sweep holds about one description's units per live
#: round (SPAM has 62) plus the units its transforms replaced.  The
#: bound is for ``repro-serve``, which keeps every served description
#: alive in its job record: without it the memo would grow with every
#: distinct job.  Saturated, it holds under 1 MB.
UNIT_MEMO_ENTRIES = 1024

# Identity-keyed memo of whole trees: id(obj) -> (weakref to obj, tree).
# The weakref callback evicts the entry when the object dies, so a
# recycled id() can never alias a stale tree; the ``ref() is obj`` check
# guards the (impossible under CPython, but cheap to exclude) race where
# the entry outlives its object.
_TREE_MEMO: Dict[int, Tuple["weakref.ref", FingerprintTree]] = {}

# Unit memo: id(unit object) -> (weakref to it, canonical text, digest),
# least recently used first, evicted like the tree memo when the object
# dies and by the LRU at the bound.  A lookup, an LRU touch and a death
# eviction are single OrderedDict calls, atomic under the GIL; an insert
# holds the lock with its LRU eviction, so serve's threads never push
# the memo past its bound.
_UNIT_MEMO: "OrderedDict[int, Tuple[weakref.ref, str, str]]" = OrderedDict()
_UNIT_LOCK = threading.Lock()


def clear_fingerprint_memo() -> None:
    """Drop all memoized trees and unit texts (test isolation hook)."""
    _TREE_MEMO.clear()
    with _UNIT_LOCK:
        _UNIT_MEMO.clear()


def _memoized(memo, obj, build):
    key = id(obj)
    entry = memo.get(key)
    if entry is not None:
        ref, value = entry
        if ref() is obj:
            return value
    value = build(obj)
    try:
        ref = weakref.ref(obj, lambda _r, _k=key: memo.pop(_k, None))
    except TypeError:
        return value  # not weakref-able: compute without caching
    memo[key] = (ref, value)
    return value


def _unit_text(obj, render) -> Tuple[str, str]:
    """``(text, digest)`` of one token, non-terminal, storage, alias or
    operation: *render* runs once per object while the object's entry
    stays in the bounded memo."""
    key = id(obj)
    entry = _UNIT_MEMO.get(key)
    if entry is not None and entry[0]() is obj:
        try:
            _UNIT_MEMO.move_to_end(key)
        except KeyError:  # evicted by another thread meanwhile
            pass
        return entry[1], entry[2]
    text = "\n".join(render(obj))
    digest = fingerprint_text(text)
    try:
        ref = weakref.ref(obj, lambda _r, _k=key: _UNIT_MEMO.pop(_k, None))
    except TypeError:
        return text, digest  # not weakref-able: compute without caching
    with _UNIT_LOCK:
        _UNIT_MEMO[key] = (ref, text, digest)
        _UNIT_MEMO.move_to_end(key)
        if len(_UNIT_MEMO) > UNIT_MEMO_ENTRIES:
            _UNIT_MEMO.popitem(last=False)
    return text, digest


def _build_tree(desc: ast.Description) -> FingerprintTree:
    header = _EMPTY
    fmt = _EMPTY
    tokens: Dict[str, str] = {}
    nonterminals: Dict[str, str] = {}
    storages: Dict[str, str] = {}
    aliases: Dict[str, str] = {}
    operations: Dict[Tuple[str, str], str] = {}
    fields = []
    constraints = _EMPTY
    attributes = _EMPTY
    texts = []
    for kind, key, source, render in unit_sources(desc):
        if kind in OBJECT_UNIT_KINDS:
            text, digest = _unit_text(source, render)
        else:
            text = "\n".join(render(source))
            digest = (
                fingerprint_text(text)
                if kind not in ("frame", "field") else None
            )
        texts.append(text)
        if kind == "header":
            header = digest
        elif kind == "format":
            fmt = digest
        elif kind == "token":
            tokens[key] = digest
        elif kind == "nonterminal":
            nonterminals[key] = digest
        elif kind == "storage":
            storages[key] = digest
        elif kind == "alias":
            aliases[key] = digest
        elif kind == "field":
            fields.append(key)
        elif kind == "operation":
            operations[key] = digest
        elif kind == "constraints":
            constraints = digest
        elif kind == "attributes":
            attributes = digest
    # every unit has at least one line, so joining the unit texts joins
    # the document's lines
    return FingerprintTree(
        root=fingerprint_text("\n".join(texts) + "\n"),
        header=header,
        format=fmt,
        tokens=tokens,
        nonterminals=nonterminals,
        storages=storages,
        aliases=aliases,
        operations=operations,
        fields=tuple(fields),
        constraints=constraints,
        attributes=attributes,
    )


def fingerprint_tree(desc: ast.Description) -> FingerprintTree:
    """The fingerprint tree of *desc*, memoized per AST object.

    A miss renders only the units whose objects the unit memo has not
    seen (see :func:`_unit_text`); the tree equals a cold build's.
    """
    return _memoized(_TREE_MEMO, desc, _build_tree)


def fingerprint(desc: ast.Description) -> str:
    """Stable structural fingerprint of a description.

    Any change that alters the printed ISDL document — an operation added
    or dropped, a cost or timing annotation, a storage resized — changes
    the fingerprint; descriptions that print identically share one.
    Memoized per AST object (transforms are functional, so an object's
    canonical text never changes).
    """
    return fingerprint_tree(desc).root


@dataclass(frozen=True)
class FingerprintDelta:
    """Which units differ between a parent and a child description.

    ``*_changed`` name sets list every unit *touched* — changed in place,
    added, or removed; operations are split three ways.  The predicates
    name which environments a transform left byte-identical, each
    conservatively ("provably unchanged", never "probably unchanged").
    Nothing in the tool chain reads them: they describe a transform's
    locality, which ``tests/explore/golden_locality.json`` pins.
    """

    parent_root: str
    child_root: str
    header_changed: bool
    format_changed: bool
    fields_changed: bool
    tokens_changed: FrozenSet[str]
    nonterminals_changed: FrozenSet[str]
    storages_changed: FrozenSet[str]
    aliases_changed: FrozenSet[str]
    constraints_changed: bool
    attributes_changed: bool
    changed_ops: FrozenSet[Tuple[str, str]]
    added_ops: FrozenSet[Tuple[str, str]]
    removed_ops: FrozenSet[Tuple[str, str]]
    op_order_changed: bool

    @property
    def identical(self) -> bool:
        return self.parent_root == self.child_root

    def op_unchanged(self, field_name: str, op_name: str) -> bool:
        """True when (field, op) exists in both with an identical digest."""
        key = (field_name, op_name)
        return (
            key not in self.changed_ops
            and key not in self.added_ops
            and key not in self.removed_ops
        )

    @property
    def touched_ops(self) -> FrozenSet[Tuple[str, str]]:
        return self.changed_ops | self.added_ops | self.removed_ops

    @property
    def instruction_set_unchanged(self) -> bool:
        """Same operations, same definitions, same document order."""
        return (
            not self.touched_ops
            and not self.op_order_changed
            and not self.fields_changed
        )

    @property
    def global_env_unchanged(self) -> bool:
        """Word format, tokens, and non-terminals all identical.

        The environment every encoding/decoding artifact reads: signature
        rows, decoders, and compiled simulator blocks of an *unchanged*
        operation are identical when this holds.
        """
        return (
            not self.format_changed
            and not self.tokens_changed
            and not self.nonterminals_changed
        )

    @property
    def storage_env_unchanged(self) -> bool:
        """Storages and aliases identical (widths, depths, targets)."""
        return not self.storages_changed and not self.aliases_changed

    @property
    def sim_env_unchanged(self) -> bool:
        """Everything a simulator bakes in besides the operations."""
        return (
            self.global_env_unchanged
            and self.storage_env_unchanged
            and not self.fields_changed
            and not self.attributes_changed
        )

    @property
    def assembly_reusable(self) -> bool:
        """The compiler would provably emit the parent's binary again.

        The compiler reads the whole instruction set (selection), the
        storages (register allocation), and the constraints (bundling),
        so only a header/attribute-level change leaves its output
        untouched by construction.
        """
        return (
            self.instruction_set_unchanged
            and self.global_env_unchanged
            and self.storage_env_unchanged
            and not self.constraints_changed
        )


def _diff_names(parent: Mapping, child: Mapping) -> FrozenSet:
    touched = set(parent.keys() ^ child.keys())
    touched.update(
        k for k in parent.keys() & child.keys() if parent[k] != child[k]
    )
    return frozenset(touched)


def fingerprint_delta(
    parent: Union[ast.Description, FingerprintTree],
    child: Union[ast.Description, FingerprintTree],
) -> FingerprintDelta:
    """Structural diff between two descriptions' fingerprint trees."""
    pt = parent if isinstance(parent, FingerprintTree) else fingerprint_tree(parent)
    ct = child if isinstance(child, FingerprintTree) else fingerprint_tree(child)
    pops, cops = pt.operations, ct.operations
    common = pops.keys() & cops.keys()
    changed = frozenset(k for k in common if pops[k] != cops[k])
    surviving = [k for k in pt.op_order if k in cops]
    child_surviving = [k for k in ct.op_order if k in pops]
    return FingerprintDelta(
        parent_root=pt.root,
        child_root=ct.root,
        header_changed=pt.header != ct.header,
        format_changed=pt.format != ct.format,
        fields_changed=pt.fields != ct.fields,
        tokens_changed=_diff_names(pt.tokens, ct.tokens),
        nonterminals_changed=_diff_names(pt.nonterminals, ct.nonterminals),
        storages_changed=_diff_names(pt.storages, ct.storages),
        aliases_changed=_diff_names(pt.aliases, ct.aliases),
        constraints_changed=pt.constraints != ct.constraints,
        attributes_changed=pt.attributes != ct.attributes,
        changed_ops=changed,
        added_ops=frozenset(cops.keys() - pops.keys()),
        removed_ops=frozenset(pops.keys() - cops.keys()),
        op_order_changed=surviving != child_surviving,
    )
