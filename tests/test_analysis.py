import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import (
    CertificateError,
    CycleCensus,
    PlanarityCertificate,
    build_graph,
    counterexample_report,
    cycles_of_length,
    distance,
    forbidden_cycle_check,
    is_planar,
    triangle_edge_conflicts,
    triangles_sharing_edge,
    validate_planarity_certificate,
)
from steinberg import analysis
from steinberg.analysis import shortest_path

from support import (
    normalize_cycle,
    random_sparse_graph,
    reference_shortest_path,
    reference_triangle_conflicts,
    stack_depth,
    subset_cycles,
)


def graphs(max_n: int = 9):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        return build_graph(n, sorted(chosen))

    return build()


K5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
K33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


def subdivide_every_edge(g, length=2):
    """Replace each edge by a path of ``length`` edges."""
    edges = []
    nxt = g.n
    for u, v in g.edges:
        path = [u, *range(nxt, nxt + length - 1), v]
        edges.extend(zip(path, path[1:]))
        nxt += length - 1
    return build_graph(nxt, edges)


def grid(w):
    """The w x w grid, row by row."""
    edges = [(v, v + 1) for v in range(w * w) if v % w < w - 1]
    edges += [(v, v + w) for v in range(w * (w - 1))]
    return build_graph(w * w, edges)


# ---------------------------------------------------------------------------
# distances

def test_distances_on_a_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert [distance(g, 0, v) for v in range(4)] == [0, 1, 2, 3]
    assert distance(g, 3, 0) == 3
    assert shortest_path(g, 0, 3) == [0, 1, 2, 3]


def test_distance_unreachable_is_none():
    g = build_graph(3, [(0, 1)])
    assert distance(g, 0, 2) is None
    assert shortest_path(g, 0, 2) is None
    assert [distance(g, 2, v) for v in range(3)] == [None, None, 0]


def test_shortest_path_is_shortest():
    # two routes of different lengths between 0 and 3
    g = build_graph(5, [(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)])
    assert shortest_path(g, 0, 3) == [0, 1, 3]
    assert distance(g, 0, 3) == 2


@pytest.mark.parametrize("u, v", [(-2, 1), (0, -1), (0, 4), (4, 0), (-1, 9)])
def test_an_endpoint_outside_the_graph_is_refused(u, v):
    # a negative endpoint would index the parent list from its end: -2
    # to 1 on this path looped, and 0 to -1 returned [0, 1, 2, -1]
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    bad = u if not 0 <= u < 4 else v
    for ask in (shortest_path, distance):
        with pytest.raises(ValueError, match=rf"^endpoint {bad} outside 0\.\.3$"):
            ask(g, u, v)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_shortest_path_matches_the_dict_bfs(g):
    # every ordered pair: u == v, unreachable targets across the
    # components of a disconnected graph, and the same parent on ties
    for u in range(g.n):
        for v in range(g.n):
            assert shortest_path(g, u, v) == reference_shortest_path(g, u, v)


# ---------------------------------------------------------------------------
# cycle enumeration

def test_cycles_of_length_rejects_bad_k():
    g = build_graph(3, [])
    with pytest.raises(ValueError):
        cycles_of_length(g, 2)
    with pytest.raises(ValueError):
        cycles_of_length(g, 7)


def test_cycle_witnesses_are_canonical_and_sorted():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    found = cycles_of_length(g, 4)
    assert found == [(0, 1, 2, 3), (0, 3, 4, 5)]
    for w in found:
        assert w == normalize_cycle(w)
        assert len(analysis._cycle_edges(w)) == 4
        for u, v in analysis._cycle_edges(w):
            assert g.has_edge(u, v)


def test_chords_do_not_hide_cycles():
    # K4 has three 4-cycles even though every one of them has chords
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert len(cycles_of_length(k4, 3)) == 4
    assert len(cycles_of_length(k4, 4)) == 3


@given(graphs(), st.sampled_from([3, 4, 5, 6]))
@settings(max_examples=200, deadline=None)
def test_cycles_match_subset_oracle(g, k):
    got = set(cycles_of_length(g, k))
    assert got == subset_cycles(g, k)


NONEMPTY_LENGTH_SETS = [
    set(lengths)
    for r in range(1, 5)
    for lengths in itertools.combinations((3, 4, 5, 6), r)
]


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_census_matches_subset_oracle(g):
    # one DFS per census, whatever lengths it is asked for, finds each
    # length's cycles exactly and in sorted order
    oracle = {k: sorted(subset_cycles(g, k)) for k in (3, 4, 5, 6)}
    for lengths in NONEMPTY_LENGTH_SETS:
        census = CycleCensus(g, lengths)
        for k in lengths:
            assert census[k] == oracle[k], (lengths, k)


def test_census_of_no_lengths_runs_no_dfs(monkeypatch):
    def no_dfs(g, lengths):
        raise AssertionError("a census of no lengths ran its DFS")

    monkeypatch.setattr(analysis, "_cycle_dfs", no_dfs)
    assert forbidden_cycle_check(K5, set()) is None
    assert forbidden_cycle_check(K5, []) is None


@pytest.mark.parametrize("bad", [2, 7])
def test_census_rejects_lengths_outside_3_to_6(bad):
    with pytest.raises(ValueError):
        CycleCensus(K5, {3, bad})
    with pytest.raises(ValueError):
        forbidden_cycle_check(K5, {bad})


def test_forbidden_cycle_check():
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert forbidden_cycle_check(c6, {4, 5}) is None
    w = forbidden_cycle_check(c6, {4, 5, 6})
    assert w is not None and len(w) == 6

    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    w = forbidden_cycle_check(c4, {4, 5})
    assert w == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# triangle predicates

def test_triangles_sharing_edge():
    # two triangles glued on edge (0, 1)
    book = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    conflicts = triangles_sharing_edge(book)
    assert len(conflicts) == 1
    edge, t1, t2 = conflicts[0]
    assert edge == (0, 1)
    assert {t1, t2} == {(0, 1, 2), (0, 1, 3)}

    disjoint = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert triangles_sharing_edge(disjoint) == []


def test_triangle_edge_conflicts_with_five_cycle():
    # a 5-cycle with one chord: the chord triangle leans on the cycle
    house = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    conflicts = triangle_edge_conflicts(house)
    assert len(conflicts) == 1
    edge, tri, five = conflicts[0]
    assert tri == (0, 1, 2)
    assert len(five) == 5
    assert edge in analysis._cycle_edges(tri) and edge in analysis._cycle_edges(five)

    # the knob that picked cycle lengths is gone: 3 and 5 are always checked
    with pytest.raises(TypeError):
        triangle_edge_conflicts(house, {5})


def test_triangle_edge_conflicts_includes_triangle_pairs():
    book = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert triangle_edge_conflicts(book) == triangles_sharing_edge(book)
    assert len(triangle_edge_conflicts(book)) == 1


@given(graphs(9))
@settings(max_examples=150, deadline=None)
def test_triangle_predicates_match_subset_reference(g):
    pairs, conflicts = reference_triangle_conflicts(g)
    assert triangles_sharing_edge(g) == pairs
    assert triangle_edge_conflicts(g) == conflicts


def test_one_cycle_dfs_per_verify_report(monkeypatch):
    # the report's cycle check and both triangle checks read one census
    # of the 3-, 4- and 5-cycles, whose DFS runs inside the first of them
    # and so shows in its time; a triangle check alone takes its own
    runs = []

    def counting(g, lengths, real=analysis._cycle_dfs):
        runs.append(sorted(lengths))
        time.sleep(0.05)
        return real(g, lengths)

    monkeypatch.setattr(analysis, "_cycle_dfs", counting)
    house = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    for g in (K5, house):
        runs.clear()
        report = counterexample_report(g)
        assert runs == [[3, 4, 5]]
        assert report.check("no-4-or-5-cycles").duration_s >= 0.05
        runs.clear()
        assert triangle_edge_conflicts(g)
        assert runs == [[3, 5]]


# ---------------------------------------------------------------------------
# planarity

def test_planar_certificate_validates():
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    cert = is_planar(g)
    assert cert.planar
    validate_planarity_certificate(g, cert)


def test_disconnected_planar_graph():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cert = is_planar(g)
    assert cert.planar
    validate_planarity_certificate(g, cert)


@pytest.mark.parametrize("obstruction, kind", [(K5, "K5"), (K33, "K3,3")])
def test_kuratowski_obstructions(obstruction, kind):
    for g in (obstruction, subdivide_every_edge(obstruction)):
        cert = is_planar(g)
        assert not cert.planar
        assert validate_planarity_certificate(g, cert) == kind


def test_planar_verdicts_respect_edge_bound():
    # m <= 3n - 6 holds for every planar simple graph on >= 3 vertices
    dense = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert not is_planar(dense).planar
    assert dense.m > 3 * dense.n - 6


def test_fabricated_planar_certificate_for_k5_fails():
    # any rotation system on K5 must flunk the Euler face count
    rotation = tuple(tuple(sorted(set(range(5)) - {v})) for v in range(5))
    cert = PlanarityCertificate(planar=True, rotation=rotation)
    with pytest.raises(CertificateError, match="Euler"):
        validate_planarity_certificate(K5, cert)


def test_tampered_rotation_fails():
    g = build_graph(3, [(0, 1), (1, 2)])
    good = is_planar(g)
    validate_planarity_certificate(g, good)
    bad = PlanarityCertificate(planar=True, rotation=((1, 2), (0,), (1,)))
    with pytest.raises(CertificateError, match="neighbors"):
        validate_planarity_certificate(g, bad)
    with pytest.raises(CertificateError, match="rotation"):
        validate_planarity_certificate(g, PlanarityCertificate(planar=True))


@pytest.mark.parametrize("k4_first", [True, False])
def test_one_nonplanar_component_fails_the_euler_check(k4_first):
    # K4 beside a triangle; the sorted rotation puts K4 on the torus
    # (2 faces, not 4), and any rotation of a triangle is planar
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    tri = [(0, 1), (1, 2), (0, 2)]
    k4_at, tri_at = (0, 4) if k4_first else (3, 0)
    g = build_graph(7, [(u + k4_at, v + k4_at) for u, v in k4]
                    + [(u + tri_at, v + tri_at) for u, v in tri])
    validate_planarity_certificate(g, is_planar(g))
    sorted_rings = PlanarityCertificate(planar=True, rotation=g.adj)
    with pytest.raises(CertificateError, match="n=4 m=6 f=2"):
        validate_planarity_certificate(g, sorted_rings)


def test_tampered_obstruction_fails():
    cert = is_planar(K5)
    # an obstruction edge that the graph does not contain
    fake = PlanarityCertificate(
        planar=False, obstruction_edges=((0, 1), (2, 5))
    )
    g6 = build_graph(6, list(K5.edges))
    with pytest.raises(CertificateError, match="not in the graph"):
        validate_planarity_certificate(g6, fake)
    # a loop is refused as a certificate fault, not a graph-building one
    looped = PlanarityCertificate(
        planar=False, obstruction_edges=((0, 0), *cert.obstruction_edges)
    )
    with pytest.raises(CertificateError, match="loop"):
        validate_planarity_certificate(K5, looped)
    # no obstruction at all
    with pytest.raises(CertificateError, match="no obstruction"):
        validate_planarity_certificate(K5, PlanarityCertificate(planar=False))


PRISM = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                        (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize("g, message", [
    pytest.param(
        build_graph(8, [*K5.edges, (5, 6), (6, 7), (5, 7)]),
        "smooths to a doubled edge", id="K5-and-a-triangle",
    ),
    pytest.param(PRISM, "3-regular core is not bipartite", id="prism"),
    pytest.param(
        build_graph(4, list(itertools.combinations(range(4), 2))),
        "neither a K5 nor a K3,3", id="K4",
    ),
    # five branch vertices that are not all of degree 4, and six that
    # are not all of degree 3
    pytest.param(
        build_graph(5, [e for e in K5.edges if e != (0, 1)]),
        "neither a K5 nor a K3,3", id="K5-less-an-edge",
    ),
    pytest.param(
        build_graph(6, [(0, 1), *itertools.combinations(range(2, 6), 2)]),
        "neither a K5 nor a K3,3", id="edge-beside-K4",
    ),
])
def test_an_obstruction_that_does_not_smooth_to_k5_or_k33_fails(g, message):
    # each obstruction is the whole graph, so every edge is in it
    cert = PlanarityCertificate(planar=False, obstruction_edges=g.edges)
    with pytest.raises(CertificateError, match=message):
        validate_planarity_certificate(g, cert)


@given(graphs(8))
@settings(max_examples=100, deadline=None)
def test_every_planarity_certificate_validates(g):
    cert = is_planar(g)
    validate_planarity_certificate(g, cert)
    if g.n >= 3 and cert.planar:
        assert g.m <= 3 * g.n - 6


@pytest.mark.parametrize("g, kind", [
    pytest.param(build_graph(5000, [(i, i + 1) for i in range(4999)]), None, id="path-5000"),
    pytest.param(grid(70), None, id="grid-70x70"),
    pytest.param(subdivide_every_edge(K5, 200), "K5", id="K5-paths-200"),
    pytest.param(subdivide_every_edge(K33, 200), "K3,3", id="K3,3-paths-200"),
])
def test_deep_inputs_do_not_recurse(g, kind):
    # every DFS keeps an explicit stack, and the Kuratowski extraction
    # suppresses the long paths rather than testing one edge at a time
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        cert = is_planar(g)
        proved = validate_planarity_certificate(g, cert)
    finally:
        sys.setrecursionlimit(limit)
    assert cert.planar == (kind is None)
    assert proved == kind
    if kind is not None:
        assert cert.obstruction_edges == g.edges


def test_planarity_stops_testing_at_the_first_conflict(monkeypatch):
    # a nonplanar verdict never builds an embedding
    def no_embedding(self):
        raise AssertionError("embedding phase ran on a nonplanar graph")

    monkeypatch.setattr(analysis._LeftRight, "rotation", no_embedding)
    for g in (K5, K33, subdivide_every_edge(K33)):
        assert not is_planar(g).planar


# ---------------------------------------------------------------------------
# networkx as an outside oracle, in the tests only

@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def networkx_planar(nx, g) -> bool:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.check_planarity(G)[0]


@given(graphs(10))
@settings(max_examples=300, deadline=None)
def test_planarity_verdicts_match_networkx(nx, g):
    cert = is_planar(g)
    assert cert.planar == networkx_planar(nx, g)
    validate_planarity_certificate(g, cert)


def test_sparse_planarity_verdicts_match_networkx(nx):
    rng = random.Random(14)
    verdicts = []
    for _ in range(40):
        n = rng.randrange(10, 301)
        g = random_sparse_graph(rng, n, rng.randrange(n // 2, 3 * n // 2))
        cert = is_planar(g)
        assert cert.planar == networkx_planar(nx, g)
        validate_planarity_certificate(g, cert)
        verdicts.append(cert.planar)
    # the pool holds both verdicts
    assert 5 <= sum(verdicts) <= 35


def test_reports_leave_networkx_unloaded():
    # planarity is decided in-house; networkx is a test-only oracle
    code = (
        "import sys, steinberg\n"
        "from steinberg import build_graph, counterexample_report\n"
        "triple = steinberg.build_triple_gadget(steinberg.load_seed_gadget())\n"
        "final = steinberg.build_counterexample(triple)\n"
        "assert counterexample_report(final).passed\n"
        "k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])\n"
        "assert not counterexample_report(k5).check('planarity').passed\n"
        "print('networkx' in sys.modules)"
    )
    # the child imports the same package as this test run
    src = os.path.dirname(os.path.dirname(analysis.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.strip() == "False"
