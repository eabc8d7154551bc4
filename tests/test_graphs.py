import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import Graph, GraphConstructionError, build_graph
from steinberg.graphs import (
    add_apex,
    normalize_edge,
    remove_edge,
)


def test_edges_sorted_and_normalized():
    g = build_graph(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.m == 3
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 3)


def test_equal_graphs_compare_equal():
    a = build_graph(3, [(2, 0), (0, 1)])
    b = build_graph(3, [(0, 1), (0, 2)])
    assert a == b
    assert hash(a) == hash(b)


def test_loop_rejected():
    with pytest.raises(GraphConstructionError):
        normalize_edge(2, 2)
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(1, 1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphConstructionError, match=r"\(0, 5\)"):
        build_graph(3, [(0, 5)])
    with pytest.raises(GraphConstructionError):
        build_graph(0, [(0, 0)])


def test_construction_errors_quote_huge_integers_in_short():
    # short values keep their messages byte for byte; a huge one is cut
    huge = int("9" * 4_000)
    cases = [
        (lambda: build_graph(3, [(0, 5)]), "edge (0, 5) has an endpoint outside 0..2"),
        (lambda: build_graph(-1, []), "vertex count must be in 0..258047, got -1"),
        (lambda: build_graph(2, [], {7: "x"}), "label on unknown vertex 7"),
        (lambda: remove_edge(build_graph(3, []), 0, 1), "edge (0, 1) not present"),
        (
            lambda: build_graph(huge, []),
            f"vertex count must be in 0..258047, got {'9' * 80}... (4000 characters)",
        ),
        (
            lambda: build_graph(2, [(huge, 0)]),
            f"edge ({'9' * 80}... (4000 characters), 0) has an endpoint outside 0..1",
        ),
        (
            lambda: remove_edge(build_graph(3, []), 0, huge),
            f"edge (0, {'9' * 80}... (4000 characters)) not present",
        ),
    ]
    for build, message in cases:
        with pytest.raises(GraphConstructionError) as caught:
            build()
        assert str(caught.value) == message


def test_duplicate_edge_rejected():
    with pytest.raises(GraphConstructionError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])


def test_negative_vertex_count_rejected():
    with pytest.raises(GraphConstructionError):
        build_graph(-1, [])


def test_adjacency_views_agree():
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert g.neighbor_sets[0] == frozenset({1, 2})
    assert g.adj[0] == (1, 2)
    assert g.adj[4] == (3,)
    assert [len(g.adj[v]) for v in range(5)] == [2, 2, 2, 1, 1]


def assert_sorted_adjacency(g):
    # adj comes from one pass over the sorted edges, so it is sorted only
    # because every constructor sorts them; the sets are read off the
    # edges here, independently of adj
    for v in range(g.n):
        assert g.adj[v] == tuple(sorted(g.neighbor_sets[v]))
        assert g.neighbor_sets[v] == {w for e in g.edges if v in e for w in e if w != v}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_adjacency_is_sorted_on_every_constructor(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    g = build_graph(n, data.draw(st.permutations(edges)))
    assert_sorted_adjacency(g)
    perm = list(range(n))
    random.Random(data.draw(st.integers(min_value=0, max_value=2**32))).shuffle(perm)
    assert_sorted_adjacency(g.relabeled(perm))
    if edges:
        assert_sorted_adjacency(remove_edge(g, *data.draw(st.sampled_from(edges))))
    targets = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    assert_sorted_adjacency(add_apex(g, sorted(targets, reverse=True)))


def test_labels_round_trip_and_lookup():
    g = build_graph(3, [(0, 1)], labels={1: "a", 2: "b"})
    assert dict(g.labels) == {1: "a", 2: "b"}
    assert g.vertex_by_label("b") == 2
    with pytest.raises(KeyError):
        g.vertex_by_label("missing")
    with pytest.raises(GraphConstructionError):
        build_graph(2, [], labels={5: "x"})


def test_relabeled_permutes_edges_and_labels():
    g = build_graph(3, [(0, 1), (1, 2)], labels={0: "left", 2: "right"})
    h = g.relabeled({0: 2, 1: 1, 2: 0})
    assert h.edges == ((0, 1), (1, 2))
    assert dict(h.labels) == {2: "left", 0: "right"}
    assert h.relabeled({0: 2, 1: 1, 2: 0}) == g


def test_relabeled_rejects_non_permutation():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(GraphConstructionError):
        g.relabeled({0: 0, 1: 0, 2: 2})


def test_remove_edge():
    g = build_graph(3, [(0, 1), (1, 2)])
    h = remove_edge(g, 2, 1)
    assert h.edges == ((0, 1),)
    assert h.n == 3
    with pytest.raises(GraphConstructionError):
        remove_edge(h, 1, 2)


def test_add_apex():
    g = build_graph(3, [(0, 1)])
    h = add_apex(g, [0, 2])
    assert h.n == 4
    assert h.edges == ((0, 1), (0, 3), (2, 3))


def test_graph_is_immutable():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5
