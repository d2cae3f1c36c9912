"""Clique partitioning for functional-unit allocation (paper §4.1.2).

"Once we have the entries in the matrix, we can simply create maximal
cliques of the nodes that can be shared.  These maximal cliques are then
synthesized into circuits."

Partitioning a graph into a minimum number of cliques is NP-hard, so we use
the classic greedy clique-partitioning heuristic of high-level synthesis
(Tseng & Siewiorek): repeatedly merge the pair of super-nodes with the most
common neighbours until no edge remains.  Each resulting clique becomes one
functional-unit instance; by construction every clique is maximal within the
remaining graph when it is closed.

A graph is given as its rows: one int bitset per vertex, bit *w* of row *v*
set iff *v* and *w* are adjacent (undirected, no self-loops), as
:meth:`repro.hgen.sharing.SharingAnalysis.adjacency` builds them.

The greedy runs per connected component.  A merge requires each side's
members to be common neighbours of the other, so candidate pairs are always
adjacent super-nodes and merges never cross a component boundary; running
the same greedy on each component (vertices relabelled in ascending order,
which preserves the tie-break order) therefore produces bit-identical
cliques to the whole-graph scan at a fraction of the O(n^2)-pairs-per-round
cost.  A component's greedy result depends only on its relabelled rows, so
:func:`clique_partition` runs the greedy once for all the components of one
graph whose relabelled rows are equal (SPAM's 31 components have 11
distinct ones).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

# A component's partition, in local (relabelled) vertex indices.
LocalCliques = Tuple[Tuple[int, ...], ...]


def connected_components(rows: Sequence[int]) -> List[List[int]]:
    """Connected components as sorted vertex lists, ordered by first vertex."""
    components: List[List[int]] = []
    unseen = (1 << len(rows)) - 1
    while unseen:
        component = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= rows[v]
            frontier = reach & ~component
            component |= frontier
        unseen &= ~component
        components.append(_bits(component))
    return components


def _bits(mask: int) -> List[int]:
    """The set bits of *mask*, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _greedy_partition(rows: Sequence[int]) -> List[List[int]]:
    """Tseng–Siewiorek greedy on one (typically connected) graph.

    Each round merges the first pair ``(a, b)``, ``a < b``, in ascending
    order with the most common neighbours.  Vertex sets are int bitsets:
    a super-node is named by its lowest member, so a valid partner ``b``
    (one of its own members) must lie in ``common[a]``; scanning only the
    alive bits of ``common[a]`` above ``a`` visits the valid pairs in the
    same order as scanning every alive pair.
    """
    n = len(rows)
    # Super-node state: members and the vertices adjacent to *all*
    # members (candidates for joining the clique).
    members = [1 << i for i in range(n)]
    common = list(rows)
    alive = (1 << n) - 1

    while True:
        best = None
        best_gain = -1
        later = alive
        while later:
            low = later & -later
            later ^= low
            a = low.bit_length() - 1
            common_a = common[a]
            partners = common_a & later
            # the gain is at most |common[a]|; only a larger one wins
            if not partners or common_a.bit_count() <= best_gain:
                continue
            members_a = members[a]
            while partners:
                bit = partners & -partners
                partners ^= bit
                b = bit.bit_length() - 1
                common_b = common[b]
                # each side's members must be common neighbours of the other
                if members[b] & ~common_a or members_a & ~common_b:
                    continue
                gain = (common_a & common_b).bit_count()
                if gain > best_gain:
                    best_gain = gain
                    best = (a, b)
        if best is None:
            break
        a, b = best
        members[a] |= members[b]
        common[a] &= common[b] & ~members[a]
        alive ^= 1 << b
    return [_bits(members[a]) for a in _bits(alive)]


def clique_partition(rows: Sequence[int]) -> List[List[int]]:
    """Partition vertices into cliques of the compatibility graph.

    *rows* holds one neighbour bitset per vertex.  Returns a list of
    cliques, each a sorted list of vertex indices; every vertex appears in
    exactly one clique (isolated vertices form singleton cliques).  The
    greedy runs per connected component, once per distinct relabelled
    component.
    """
    cliques: List[List[int]] = []
    partitions: Dict[Tuple[int, ...], LocalCliques] = {}
    for comp in connected_components(rows):
        if len(comp) == 1:
            cliques.append(comp)  # an isolated vertex is its own clique
            continue
        local_bit = {v: 1 << i for i, v in enumerate(comp)}
        local_rows = []
        for v in comp:
            row = rows[v]
            local = 0
            while row:
                low = row & -row
                row ^= low
                local |= local_bit[low.bit_length() - 1]
            local_rows.append(local)
        key = tuple(local_rows)
        local = partitions.get(key)
        if local is None:
            local = partitions[key] = tuple(
                tuple(c) for c in _greedy_partition(local_rows)
            )
        cliques += [[comp[i] for i in clique] for clique in local]
    cliques.sort(key=lambda clique: clique[0])
    return cliques


def verify_cliques(rows: Sequence[int],
                   cliques: Sequence[Sequence[int]]) -> None:
    """Assert the partition is a set of valid, disjoint, covering cliques."""
    seen = 0
    for clique in cliques:
        members = 0
        for a in clique:
            bit = 1 << a
            if seen & bit:
                raise AssertionError(f"vertex {a} in two cliques")
            seen |= bit
            members |= bit
        if len(clique) < 2:
            continue
        for a in clique:
            if members & ~(1 << a) & ~rows[a]:
                b = next(b for b in clique if b != a and not rows[a] >> b & 1)
                raise AssertionError(
                    f"vertices {min(a, b)} and {max(a, b)} share a clique but"
                    " are not compatible"
                )
    if seen != (1 << len(rows)) - 1:
        raise AssertionError("clique partition does not cover all vertices")
