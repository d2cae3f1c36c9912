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

:meth:`SharingAnalysis.adjacency` builds the rows of ``A`` as int bitsets
(bit *j* of row *i* is ``A[i][j]``) from masks of the nodes of each unit
class, operation, field, non-terminal parameter and option: rule 2 is one
mask per class, rules 1 and 3 are mask arithmetic, and rule 4 is decided
once per pair of operations in different fields.  That decision evaluates
only the constraints naming one of the two fields: every other constraint
sees neither field selected, so it takes its value on the empty selection
once for all pairs (a ``require`` on a third field is false there, which
makes every such pair exclusive).  :meth:`SharingAnalysis.compatible` and
:meth:`SharingAnalysis.matrix` keep the per-pair definition the rows are
tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

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

    def adjacency(self) -> List[int]:
        """The rows of :meth:`matrix` as int bitsets, one per node.

        A node's row is the nodes never active with it (its field's other
        operations, the other options of its own non-terminal parameter,
        and the operations the constraints exclude) masked by the nodes
        of the unit classes it may share with.
        """
        by_class: Dict[str, int] = {}
        by_op: Dict[Tuple, int] = {}  # (field, op)
        by_field: Dict[str, int] = {}
        by_param: Dict[Tuple, int] = {}  # (field, op, param)
        by_option: Dict[Tuple, int] = {}  # (field, op, param, option)
        for index, node in enumerate(self.nodes):
            bit = 1 << index
            owner = node.node_id.owner
            by_class[node.unit_class] = by_class.get(node.unit_class, 0) | bit
            op = owner[:2]
            by_op[op] = by_op.get(op, 0) | bit
            by_field[op[0]] = by_field.get(op[0], 0) | bit
            if len(owner) == 4:
                param = owner[:3]
                by_param[param] = by_param.get(param, 0) | bit
                by_option[owner] = by_option.get(owner, 0) | bit
        # rule 2: the nodes of every class each class may share with
        shares_with = dict(by_class)
        for sub, sup in SUBSET_CLASSES:
            if sub in by_class and sup in by_class:
                shares_with[sub] |= by_class[sup]
                shares_with[sup] |= by_class[sub]
        # rules 1 and 3: an operation excludes its field's other operations
        exclusive = {
            op: by_field[op[0]] & ~nodes for op, nodes in by_op.items()
        }
        if self.use_constraints:
            for op_a, op_b in self._exclusive_operations(by_op):
                exclusive[op_a] |= by_op[op_b]
                exclusive[op_b] |= by_op[op_a]
        rows = []
        for node in self.nodes:
            owner = node.node_id.owner
            others = exclusive[owner[:2]]
            if len(owner) == 4:
                # rule 3's non-terminal clause: the parameter's other options
                others |= by_param[owner[:3]] & ~by_option[owner]
            rows.append(others & shares_with[node.unit_class])
        return rows

    def _exclusive_operations(
        self, operations: Iterable[Tuple]
    ) -> Iterator[Tuple[Tuple, Tuple]]:
        """Pairs of operations in different fields that no valid
        instruction selects together (rule 4), each pair once."""
        by_field: Dict[str, List[str]] = {}
        for fld, op in operations:
            by_field.setdefault(fld, []).append(op)
        constraints = []
        for constraint in self.desc.constraints:
            named = {ref.field for ref in ast.oprefs_in(constraint.expr)}
            empty = ast.evaluate_constraint(constraint.expr, {})
            constraints.append((constraint.expr, named, empty))
        fields = list(by_field)
        for i, field_a in enumerate(fields):
            for field_b in fields[i + 1:]:
                relevant = []
                always = False
                for expr, named, empty in constraints:
                    if field_a in named or field_b in named:
                        relevant.append(expr)
                    elif not empty:
                        always = True  # false whatever the two fields pick
                        break
                if not always and not relevant:
                    continue
                for op_a in by_field[field_a]:
                    for op_b in by_field[field_b]:
                        selected = {field_a: op_a, field_b: op_b}
                        if always or not all(
                            ast.evaluate_constraint(expr, selected)
                            for expr in relevant
                        ):
                            yield (field_a, op_a), (field_b, op_b)
