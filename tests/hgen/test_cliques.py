"""Tests (incl. property-based) for clique partitioning."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hgen import cliques as cliques_module
from repro.hgen.cliques import (
    _greedy_partition,
    clique_partition,
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


def rows(adjacency):
    """The neighbour sets as the int bitset rows the partitioner takes."""
    return [sum(1 << w for w in neigh) for neigh in adjacency]


def test_empty_graph():
    assert clique_partition([]) == []


def test_isolated_vertices_become_singletons():
    adj = adjacency_from_edges(3, [])
    assert clique_partition(rows(adj)) == [[0], [1], [2]]


def test_complete_graph_single_clique():
    n = 5
    adj = adjacency_from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )
    assert clique_partition(rows(adj)) == [[0, 1, 2, 3, 4]]


def test_triangle_plus_pendant():
    adj = adjacency_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    cliques = clique_partition(rows(adj))
    verify_cliques(rows(adj), cliques)
    assert sorted(map(len, cliques)) == [1, 3]


def test_two_disjoint_edges():
    adj = adjacency_from_edges(4, [(0, 1), (2, 3)])
    cliques = clique_partition(rows(adj))
    verify_cliques(rows(adj), cliques)
    assert len(cliques) == 2


def test_bipartite_path_partition_valid():
    # path 0-1-2-3: optimal cover is two edges
    adj = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cliques = clique_partition(rows(adj))
    verify_cliques(rows(adj), cliques)
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
    cliques = clique_partition(rows(adj))
    verify_cliques(rows(adj), cliques)  # disjoint, covering, truly cliques


@settings(max_examples=80, deadline=None)
@given(graphs)
def test_partition_never_exceeds_vertex_count(graph):
    n, edges = graph
    adj = adjacency_from_edges(n, edges) if n else []
    cliques = clique_partition(rows(adj))
    assert sum(len(c) for c in cliques) == n


def test_verify_rejects_non_clique():
    adj = adjacency_from_edges(3, [(0, 1)])
    try:
        verify_cliques(rows(adj), [[0, 1, 2]])
    except AssertionError:
        pass
    else:
        raise AssertionError("expected verify_cliques to fail")


def test_verify_rejects_vertex_in_two_cliques():
    adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
    try:
        verify_cliques(rows(adj), [[0, 1], [1, 2]])
    except AssertionError as exc:
        assert "vertex 1 in two cliques" in str(exc)
    else:
        raise AssertionError("expected verify_cliques to fail")


def test_verify_rejects_missing_vertex():
    adj = adjacency_from_edges(2, [])
    try:
        verify_cliques(rows(adj), [[0]])
    except AssertionError:
        pass
    else:
        raise AssertionError("expected verify_cliques to fail")


# ----------------------------------------------------------------------
# Component-wise partitioning
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(graphs)
def test_component_partition_equals_whole_graph_greedy(graph):
    """Per-component partitioning is a pure refactoring of the greedy:
    merges never cross components, so the reference whole-graph run and
    the component-wise run must agree exactly."""
    n, edges = graph
    adj = adjacency_from_edges(n, edges) if n else []
    assert clique_partition(rows(adj)) == _greedy_partition(rows(adj))


def test_isomorphic_components_share_one_greedy_run(monkeypatch):
    # two identical triangles: the second takes the first's partition
    adj = adjacency_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    runs = []
    greedy = cliques_module._greedy_partition

    def counting(local_adjacency):
        runs.append(len(local_adjacency))
        return greedy(local_adjacency)

    monkeypatch.setattr(cliques_module, "_greedy_partition", counting)
    assert clique_partition(rows(adj)) == [[0, 1, 2], [3, 4, 5]]
    assert runs == [3]


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
@given(sized_graphs())
def test_bitset_greedy_equals_set_reference(graph):
    n, edges = graph
    adj = adjacency_from_edges(n, edges)
    expected = reference_greedy(adj)
    assert _greedy_partition(rows(adj)) == expected
    assert clique_partition(rows(adj)) == expected


@settings(max_examples=60, deadline=None)
@given(sized_graphs(max_n=12), st.integers(2, 4))
def test_interleaved_copies_share_greedy_runs_and_match_reference(graph,
                                                                  copies):
    """Copy *c* of vertex *v* becomes vertex ``v * copies + c``: every
    copy keeps the original's vertex order, so the copies' components
    have equal keys and share one greedy run, and each must still get
    the cliques the whole-graph greedy gives it."""
    n, edges = graph
    adj = adjacency_from_edges(n * copies, [
        (a * copies + c, b * copies + c)
        for c in range(copies) for a, b in edges
    ])
    expected = reference_greedy(adj)
    assert clique_partition(rows(adj)) == expected
    single = clique_partition(rows(adjacency_from_edges(n, edges)))
    assert expected == sorted(
        ([v * copies + c for v in clique]
         for c in range(copies) for clique in single),
        key=lambda clique: clique[0],
    )
