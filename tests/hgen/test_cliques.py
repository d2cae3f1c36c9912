"""Tests (incl. property-based) for clique partitioning."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hgen.cliques import (
    _greedy_partition,
    clique_partition,
    partition_components,
    verify_cliques,
)


def reference_greedy(adjacency):
    """The set-based Tseng–Siewiorek greedy that ``_greedy_partition``
    replaced: every round rescans every pair of alive super-nodes, and
    the first pair with the most common neighbours merges."""
    n = len(adjacency)
    members = [[i] for i in range(n)]
    common = [set(neigh) for neigh in adjacency]
    alive = set(range(n))
    while True:
        best = None
        best_gain = -1
        alive_list = sorted(alive)
        for ai, a in enumerate(alive_list):
            for b in alive_list[ai + 1 :]:
                # b's members must all be common neighbours of a's clique.
                if not set(members[b]) <= common[a]:
                    continue
                if not set(members[a]) <= common[b]:
                    continue
                gain = len(common[a] & common[b])
                if gain > best_gain:
                    best_gain = gain
                    best = (a, b)
        if best is None:
            break
        a, b = best
        members[a] = sorted(members[a] + members[b])
        common[a] = common[a] & common[b]
        common[a] -= set(members[a])
        alive.discard(b)
    return sorted(
        (sorted(members[a]) for a in alive), key=lambda clique: clique[0]
    )


def adjacency_from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def test_empty_graph():
    assert clique_partition([]) == []


def test_isolated_vertices_become_singletons():
    adj = adjacency_from_edges(3, [])
    assert clique_partition(adj) == [[0], [1], [2]]


def test_complete_graph_single_clique():
    n = 5
    adj = adjacency_from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )
    assert clique_partition(adj) == [[0, 1, 2, 3, 4]]


def test_triangle_plus_pendant():
    adj = adjacency_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    cliques = clique_partition(adj)
    verify_cliques(adj, cliques)
    assert sorted(map(len, cliques)) == [1, 3]


def test_two_disjoint_edges():
    adj = adjacency_from_edges(4, [(0, 1), (2, 3)])
    cliques = clique_partition(adj)
    verify_cliques(adj, cliques)
    assert len(cliques) == 2


def test_bipartite_path_partition_valid():
    # path 0-1-2-3: optimal cover is two edges
    adj = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cliques = clique_partition(adj)
    verify_cliques(adj, cliques)
    assert len(cliques) == 2


graphs = st.integers(min_value=0, max_value=14).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(
                st.integers(0, max(n - 1, 0)),
                st.integers(0, max(n - 1, 0)),
            ),
            max_size=40,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(graphs)
def test_partition_is_always_valid(graph):
    n, edges = graph
    adj = adjacency_from_edges(n, edges) if n else []
    cliques = clique_partition(adj)
    verify_cliques(adj, cliques)  # disjoint, covering, truly cliques


@settings(max_examples=80, deadline=None)
@given(graphs)
def test_partition_never_exceeds_vertex_count(graph):
    n, edges = graph
    adj = adjacency_from_edges(n, edges) if n else []
    cliques = clique_partition(adj)
    assert sum(len(c) for c in cliques) == n


def test_verify_rejects_non_clique():
    adj = adjacency_from_edges(3, [(0, 1)])
    try:
        verify_cliques(adj, [[0, 1, 2]])
    except AssertionError:
        pass
    else:
        raise AssertionError("expected verify_cliques to fail")


def test_verify_rejects_missing_vertex():
    adj = adjacency_from_edges(2, [])
    try:
        verify_cliques(adj, [[0]])
    except AssertionError:
        pass
    else:
        raise AssertionError("expected verify_cliques to fail")


# ----------------------------------------------------------------------
# Component-wise partitioning (the incremental-synthesis substrate)
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(graphs)
def test_component_partition_equals_whole_graph_greedy(graph):
    """Per-component partitioning is a pure refactoring of the greedy:
    merges never cross components, so the reference whole-graph run and
    the component-wise run must agree exactly."""
    n, edges = graph
    adj = adjacency_from_edges(n, edges) if n else []
    cliques, _keys, _reused, _fresh = partition_components(adj)
    assert cliques == _greedy_partition(adj)
    assert cliques == clique_partition(adj)


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_component_reuse_skips_every_greedy_rerun(graph):
    """Handing a graph its own key map back must reuse every component
    and reproduce the identical partition — the equal-to-cold invariant
    at the clique layer."""
    n, edges = graph
    adj = adjacency_from_edges(n, edges) if n else []
    cold, keys, reused0, fresh0 = partition_components(adj)
    warm, keys2, reused, fresh = partition_components(adj, reuse=keys)
    assert warm == cold
    assert keys2 == keys
    assert fresh == 0
    assert reused == reused0 + fresh0  # every component adopted


def test_isomorphic_components_share_one_greedy_run():
    # two identical triangles: the second adopts the first's partition
    adj = adjacency_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    cliques, keys, reused, fresh = partition_components(adj)
    assert cliques == [[0, 1, 2], [3, 4, 5]]
    assert fresh == 1 and reused == 1
    assert len(keys) == 1


def test_reuse_map_from_mutated_parent_only_recomputes_changed_component():
    parent = adjacency_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]
    )
    _cliques, keys, _r, _f = partition_components(parent)
    # close the second component's triangle: only it should re-run
    child = adjacency_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    cliques, _keys, reused, fresh = partition_components(child, reuse=keys)
    assert cliques == [[0, 1, 2], [3, 4, 5]]
    assert reused >= 1  # the untouched triangle was adopted


# ----------------------------------------------------------------------
# The bitset greedy against the set-based reference
# ----------------------------------------------------------------------


@st.composite
def sized_graphs(draw, max_n=48):
    """Graphs of up to *max_n* vertices, from empty through complete."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 0.7, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return n, edges


@settings(max_examples=60, deadline=None)
@given(sized_graphs(), st.integers(0, 2**32 - 1))
def test_bitset_greedy_equals_set_reference(graph, seed):
    n, edges = graph
    adj = adjacency_from_edges(n, edges)
    expected = reference_greedy(adj)
    assert _greedy_partition(adj) == expected
    cold, keys, _reused, _fresh = partition_components(adj)
    assert cold == expected
    # reuse from the graph itself, and from a parent one edge away
    assert partition_components(adj, reuse=keys)[0] == expected
    rng = random.Random(seed)
    parent_edges = set(edges)
    if n > 1:
        parent_edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
    _c, parent_keys, _r, _f = partition_components(
        adjacency_from_edges(n, parent_edges)
    )
    assert partition_components(adj, reuse=parent_keys)[0] == expected
