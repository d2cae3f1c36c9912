"""The resource-sharing compatibility matrix (paper §4.1.2, Fig. 5).

``A[i][j] = 1`` iff nodes *i* and *j* can share a circuit — they never
operate at the same time and perform compatible tasks.  The paper's rules:

1. nodes in the same RTL statement cannot be shared (they compute
   concurrently) — we strengthen this to *the same operation instance*,
   since every statement of an action evaluates in the same cycle;
2. nodes performing different tasks cannot be shared; a node that is a
   subset of another (an add is a subset of a subtract) can;
3. nodes belonging to operations in the same field (or to options of the
   same non-terminal parameter) are never active together, so they can
   share;
4. nodes in different fields operate in parallel and cannot share — unless
   the constraints prove the two operations never co-occur, in which case
   more sharing becomes available.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..isdl import ast
from .nodes import HwNode

#: unit-class pairs where the first is a subset of the second (sharable
#: one-way); the canonical class of the merged unit is the superset class.
SUBSET_CLASSES: Dict[Tuple[str, str], str] = {
    ("comparator", "adder"): "adder",  # compare = subtract + flag pick-off
}


def classes_compatible(class_a: str, class_b: str) -> bool:
    """Rule 2: same task, or one a subset of the other."""
    if class_a == class_b:
        return True
    return (class_a, class_b) in SUBSET_CLASSES or (
        class_b,
        class_a,
    ) in SUBSET_CLASSES


def merged_class(class_a: str, class_b: str) -> str:
    """The unit class implementing both *class_a* and *class_b*."""
    if class_a == class_b:
        return class_a
    if (class_a, class_b) in SUBSET_CLASSES:
        return SUBSET_CLASSES[(class_a, class_b)]
    if (class_b, class_a) in SUBSET_CLASSES:
        return SUBSET_CLASSES[(class_b, class_a)]
    raise ValueError(f"classes {class_a!r} and {class_b!r} are incompatible")


class SharingAnalysis:
    """Builds the compatibility matrix for a description's nodes."""

    def __init__(self, desc: ast.Description, nodes: Sequence[HwNode],
                 use_constraints: bool = True):
        self.desc = desc
        self.nodes = list(nodes)
        self.use_constraints = use_constraints
        self._exclusion_cache: Dict[Tuple, bool] = {}
        # node indices by unit class, then by owner (rule 2's buckets)
        self._groups: Dict[str, Dict[Tuple, List[int]]] = {}
        for index, node in enumerate(self.nodes):
            self._groups.setdefault(node.unit_class, {}).setdefault(
                node.node_id.owner, []
            ).append(index)
        self._rows: Dict[Tuple[str, Tuple], FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Mutual exclusion of owners (rules 1, 3, 4)
    # ------------------------------------------------------------------

    def owners_exclusive(self, owner_a: Tuple, owner_b: Tuple) -> bool:
        """True iff the two owner contexts are never active together."""
        key = (owner_a, owner_b)
        cached = self._exclusion_cache.get(key)
        if cached is not None:
            return cached
        result = self._owners_exclusive(owner_a, owner_b)
        self._exclusion_cache[key] = result
        self._exclusion_cache[(owner_b, owner_a)] = result
        return result

    def _owners_exclusive(self, owner_a, owner_b) -> bool:
        field_a, op_a = owner_a[0], owner_a[1]
        field_b, op_b = owner_b[0], owner_b[1]
        if field_a == field_b:
            if op_a != op_b:
                return True  # rule 3: same field, different operations
            # Same operation: only different options of the same NT
            # parameter are exclusive (rule 3's non-terminal clause).
            if len(owner_a) == 4 and len(owner_b) == 4:
                same_param = owner_a[2] == owner_b[2]
                diff_option = owner_a[3] != owner_b[3]
                return same_param and diff_option
            return False  # rule 1: concurrent within one operation
        # Rule 4: different fields — parallel unless constraints forbid.
        if not self.use_constraints:
            return False
        if len(owner_a) > 2 or len(owner_b) > 2:
            # across fields only the two operations matter: share their memo
            return self.owners_exclusive(owner_a[:2], owner_b[:2])
        selected = {field_a: op_a, field_b: op_b}
        return not self.desc.instruction_valid(selected)

    # ------------------------------------------------------------------
    # The matrix
    # ------------------------------------------------------------------

    def compatible(self, node_a: HwNode, node_b: HwNode) -> bool:
        """One entry of the matrix A (True = the nodes may share)."""
        if node_a.node_id == node_b.node_id:
            return False
        if not classes_compatible(node_a.unit_class, node_b.unit_class):
            return False  # rule 2
        return self.owners_exclusive(
            node_a.node_id.owner, node_b.node_id.owner
        )

    def matrix(self) -> List[List[int]]:
        """The full n×n 0/1 matrix (for reports and tests)."""
        n = len(self.nodes)
        result = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if self.compatible(self.nodes[i], self.nodes[j]):
                    result[i][j] = result[j][i] = 1
        return result

    def adjacency(self) -> List[Set[int]]:
        """Adjacency sets of the compatibility graph (for the clique pass)."""
        return [set(self.row(i)) for i in range(len(self.nodes))]

    def row(self, index: int) -> FrozenSet[int]:
        """Row *index* of :meth:`matrix`, as a set of node indices.

        Computed per group instead of per pair: an entry depends only on
        the two nodes' unit classes and owners (two nodes with one owner
        are never exclusive, which also covers a node and itself), so
        every node of one ``(class, owner)`` group has the same row.
        """
        node = self.nodes[index]
        key = (node.unit_class, node.node_id.owner)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self._group_row(*key)
        return row

    def _group_row(self, unit_class: str, owner: Tuple) -> FrozenSet[int]:
        row: Set[int] = set()
        for other_class, owners in self._groups.items():
            if not classes_compatible(unit_class, other_class):
                continue  # rule 2
            for other_owner, indices in owners.items():
                if self.owners_exclusive(owner, other_owner):
                    row.update(indices)
        return frozenset(row)

