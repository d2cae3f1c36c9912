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

The greedy runs per connected component.  A merge requires each side's
members to be common neighbours of the other, so candidate pairs are always
adjacent super-nodes and merges never cross a component boundary; running
the same greedy on each component (vertices relabelled in ascending order,
which preserves the tie-break order) therefore produces bit-identical
cliques to the whole-graph scan at a fraction of the O(n^2)-pairs-per-round
cost.  A component's greedy result depends only on its relabelled local
structure, so :func:`component_key` digests that structure and
:func:`clique_partition` runs the greedy once for all the isomorphic
components of one graph (SPAM's 31 components have 11 distinct keys).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Set, Tuple

# A component's partition, in local (relabelled) vertex indices.
LocalCliques = Tuple[Tuple[int, ...], ...]


def connected_components(adjacency: Sequence[Set[int]]) -> List[List[int]]:
    """Connected components as sorted vertex lists, ordered by first vertex."""
    n = len(adjacency)
    seen = [False] * n
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        components.append(sorted(comp))
    return components


def component_key(local_adjacency: Sequence[Set[int]]) -> str:
    """Digest of a component's relabelled structure.

    Two components with equal keys are isomorphic *with matching vertex
    order*, so the greedy (whose tie-breaks follow that order) yields the
    same local cliques, and one run serves both.
    """
    h = hashlib.sha256()
    h.update(str(len(local_adjacency)).encode())
    for i, neigh in enumerate(local_adjacency):
        h.update(b"|")
        h.update(str(i).encode())
        h.update(b":")
        h.update(",".join(map(str, sorted(neigh))).encode())
    return h.hexdigest()


def _bits(mask: int) -> List[int]:
    """The set bits of *mask*, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _greedy_partition(adjacency: Sequence[Set[int]]) -> List[List[int]]:
    """Tseng–Siewiorek greedy on one (typically connected) graph.

    Each round merges the first pair ``(a, b)``, ``a < b``, in ascending
    order with the most common neighbours.  Vertex sets are int bitsets:
    a super-node is named by its lowest member, so a valid partner ``b``
    (one of its own members) must lie in ``common[a]``; scanning only the
    alive bits of ``common[a]`` above ``a`` visits the valid pairs in the
    same order as scanning every alive pair.
    """
    n = len(adjacency)
    # Super-node state: members and the vertices adjacent to *all*
    # members (candidates for joining the clique).
    members = [1 << i for i in range(n)]
    common = [sum(1 << w for w in neigh) for neigh in adjacency]
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


def clique_partition(adjacency: Sequence[Set[int]]) -> List[List[int]]:
    """Partition vertices into cliques of the compatibility graph.

    *adjacency* is a list of neighbour sets (undirected, no self-loops).
    Returns a list of cliques, each a sorted list of vertex indices; every
    vertex appears in exactly one clique (isolated vertices form singleton
    cliques).  The greedy runs per connected component, once per
    :func:`component_key`.
    """
    cliques: List[List[int]] = []
    partitions: Dict[str, LocalCliques] = {}
    for comp in connected_components(adjacency):
        local_index = {v: i for i, v in enumerate(comp)}
        local_adj = [
            {local_index[w] for w in adjacency[v] if w in local_index}
            for v in comp
        ]
        key = component_key(local_adj)
        local = partitions.get(key)
        if local is None:
            local = partitions[key] = tuple(
                tuple(c) for c in _greedy_partition(local_adj)
            )
        cliques += [[comp[i] for i in clique] for clique in local]
    cliques.sort(key=lambda clique: clique[0])
    return cliques


def verify_cliques(adjacency: Sequence[Set[int]],
                   cliques: Sequence[Sequence[int]]) -> None:
    """Assert the partition is a set of valid, disjoint, covering cliques."""
    seen: Set[int] = set()
    for clique in cliques:
        for i, a in enumerate(clique):
            if a in seen:
                raise AssertionError(f"vertex {a} in two cliques")
            seen.add(a)
            for b in clique[i + 1 :]:
                if b not in adjacency[a]:
                    raise AssertionError(
                        f"vertices {a} and {b} share a clique but are not"
                        " compatible"
                    )
    if seen != set(range(len(adjacency))):
        raise AssertionError("clique partition does not cover all vertices")
