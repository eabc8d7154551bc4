import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import build_graph, canon, canonical_digest, canonical_form, decode

from support import (
    brute_isomorphic,
    iso_classes_upto,
    reference_canonical_form,
    reference_refine,
)


def test_empty_and_singleton():
    assert canonical_form(build_graph(0, [])).data == b"?"
    assert canonical_form(build_graph(1, [])).data == b"@"


def test_form_decodes_to_isomorphic_graph():
    g = build_graph(5, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)])
    back = decode(canonical_form(g).data, "graph6")
    assert brute_isomorphic(g, back)


def test_digest_is_short_hex():
    d = canonical_digest(build_graph(2, [(0, 1)]))
    assert len(d) == 16
    int(d, 16)


def test_relabeling_invariance_on_a_known_pair():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    h = build_graph(4, [(2, 0), (0, 3), (3, 1)])  # same path, scrambled
    assert canonical_form(g) == canonical_form(h)


def test_distinguishes_same_degree_sequence():
    # C6 and two triangles are both 2-regular on 6 vertices
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_digest(c6) != canonical_digest(two_triangles)

    # K33 and the triangular prism are both 3-regular on 6 vertices
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = build_graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    assert canonical_digest(k33) != canonical_digest(prism)


def test_digest_equality_matches_brute_isomorphism_on_four_vertices():
    classes = iso_classes_upto(4)[4]
    assert len(classes) == 11
    for g, h in itertools.combinations(classes, 2):
        assert canonical_digest(g) != canonical_digest(h)
        assert not brute_isomorphic(g, h)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_relabeling_never_changes_the_form(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = build_graph(n, sorted(edges))
    perm = data.draw(st.permutations(list(range(n))))
    assert canonical_form(g) == canonical_form(g.relabeled(list(perm)))


def test_thousand_random_relabelings_fixed_graph():
    rng = random.Random(421)
    g = build_graph(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (5, 7), (6, 8)],
    )
    reference = canonical_form(g)
    for _ in range(1000):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.relabeled(perm)) == reference


def draw_graph(data, max_n):
    n = data.draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return build_graph(n, sorted(edges))


def disjoint_cycles(copies: int, length: int):
    return build_graph(
        copies * length,
        [
            (length * c + i, length * c + (i + 1) % length)
            for c in range(copies)
            for i in range(length)
        ],
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_form_equals_the_full_tree_minimum(data):
    g = draw_graph(data, 10)
    assert canonical_form(g).data == reference_canonical_form(g)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_refine_keeps_the_reference_cell_order(data):
    g = draw_graph(data, 12)
    order = data.draw(st.permutations(list(range(g.n))))
    cuts = data.draw(st.sets(st.integers(min_value=1, max_value=max(g.n - 1, 1))))
    bounds = [0, *sorted(c for c in cuts if c < g.n), g.n]
    cells = [list(order[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]
    p = canon._refine(cells, g.adj)
    got = [p.order[s:e] for s, e in p.ranges()]
    assert got == reference_refine(cells, [set(a) for a in g.adj])


def _ladder(rungs: int, ends: str) -> tuple[int, list[tuple[int, int]]]:
    """Two rails 0..r-1 and r..2r-1 joined rung by rung: open, closed
    into a prism, or closed with a half twist into a Moebius ladder."""
    r = rungs
    edges = [(i, i + 1) for i in range(r - 1)]
    edges += [(r + i, r + i + 1) for i in range(r - 1)]
    edges += [(i, r + i) for i in range(r)]
    if ends == "prism":
        edges += [(0, r - 1), (r, 2 * r - 1)]
    elif ends == "moebius":
        edges += [(0, 2 * r - 1), (r - 1, r)]
    return 2 * r, edges


@st.composite
def two_vertex_cell_graphs(draw):
    """Graphs of at most 20 vertices whose refinement leaves many cells
    of two vertices, relabeled: disjoint edges; a ladder, a prism or a
    Moebius ladder beside up to two disjoint edges; or two copies of an
    even cycle with a drawn perfect matching, whose every vertex shares
    its cell with its twin, beside up to two disjoint edges.  Each has a
    nontrivial automorphism, so no refinement is discrete."""
    kind = draw(st.sampled_from(["edges", "ladder", "matched cycles"]))
    parts = []
    if kind == "edges":
        parts += [(2, [(0, 1)])] * draw(st.integers(min_value=1, max_value=5))
    elif kind == "ladder":
        ends = draw(st.sampled_from(["open", "prism", "moebius"]))
        rungs = draw(st.integers(min_value=2 if ends == "open" else 3, max_value=10))
        parts.append(_ladder(rungs, ends))
    else:
        length = 2 * draw(st.integers(min_value=2, max_value=5))
        order = draw(st.permutations(list(range(length))))
        edges = {tuple(sorted((i, (i + 1) % length))) for i in range(length)}
        edges |= {tuple(sorted(order[i : i + 2])) for i in range(0, length, 2)}
        parts += [(length, sorted(edges))] * 2
    room = (20 - sum(m for m, _ in parts)) // 2
    if kind != "edges":
        parts += [(2, [(0, 1)])] * draw(st.integers(min_value=0, max_value=min(2, room)))
    n, edges = 0, []
    for m, part in parts:
        edges += [(n + u, n + v) for u, v in part]
        n += m
    perm = draw(st.permutations(list(range(n))))
    return build_graph(n, edges).relabeled(list(perm))


@given(two_vertex_cell_graphs())
@settings(max_examples=100, deadline=None)
def test_two_vertex_cells_keep_the_full_tree_minimum(g):
    assert canonical_form(g).data == reference_canonical_form(g)


def cells_of(p) -> list[list[int]]:
    return [p.order[s:e] for s, e in p.ranges()]


@st.composite
def hub_copies(draw):
    """Copies of one drawn graph, each joined to a hub the same way, so
    that the equitable partition keeps cells to individualize."""
    k = draw(st.integers(min_value=6, max_value=13))
    copies = draw(st.integers(min_value=2, max_value=3))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    base = draw(st.sets(st.sampled_from(pairs), max_size=2 * k))
    spokes = draw(st.sets(st.integers(min_value=0, max_value=k - 1)))
    n = copies * k + 1
    edges = [(c * k + u, c * k + v) for c in range(copies) for u, v in base]
    edges += [(c * k + u, n - 1) for c in range(copies) for u in spokes]
    perm = draw(st.permutations(list(range(n))))
    return build_graph(n, edges).relabeled(list(perm))


@given(st.one_of(hub_copies(), two_vertex_cell_graphs()))
@settings(max_examples=120, deadline=None)
def test_child_refinement_from_the_vertex_alone_keeps_the_reference_cells(g):
    n = g.n
    p = canon._refine([list(range(n))], g.adj)
    t = canon._target(p)
    assert t is not None
    # every child of the root, then down the first child to a leaf; the
    # partition is refined in place, and undoing the trail gives back
    # the parent's cells, multi-vertex cells and vertex order exactly
    while t is not None:
        cells = cells_of(p)
        parent = (p.order[:], p.start[:], sorted(p.multi))
        mark = len(p.trail)
        i = [s for s, _ in p.ranges()].index(t)
        for v in p.order[t : p.end[t]]:
            p.undo(mark)
            assert (p.order, p.start, sorted(p.multi)) == parent
            p.individualize(t, v)
            canon._split(p, g.adj, deque([(t, t + 1)]))
            rest = [w for w in cells[i] if w != v]
            want = reference_refine(
                cells[:i] + [[v], rest] + cells[i + 1 :], [set(a) for a in g.adj]
            )
            assert cells_of(p) == want
            assert p.multi == {s for s, e in p.ranges() if e - s > 1}
        p.undo(mark)
        p.individualize(t, cells[i][0])
        canon._split(p, g.adj, deque([(t, t + 1)]))
        t = canon._target(p)


def spider(legs: int, length: int):
    """A root joined to the first vertex of each of ``legs`` paths."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges += [(first + i, first + i + 1) for i in range(length - 1)]
    return build_graph(1 + legs * length, edges)


@pytest.mark.parametrize(
    "g",
    [disjoint_cycles(30, 3), spider(60, 3)],
    ids=["30 disjoint triangles", "spider with 60 legs of length 3"],
)
def test_deep_symmetric_inputs_keep_their_form_under_relabeling(g):
    # both forms take about 0.3 s on a 2-core x86-64 machine
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    start = time.perf_counter()
    assert canonical_form(g.relabeled(perm)).data == canonical_form(g).data
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize(
    "g, ceiling_s",
    [(disjoint_cycles(100, 3), 10), (spider(200, 3), 14)],
    ids=["100 disjoint triangles", "spider with 200 legs of length 3"],
)
def test_hostile_symmetric_inputs_keep_their_form_under_relabeling(g, ceiling_s):
    # both forms took 2.6-3.7 s (triangles) and 3.3-3.8 s (spider) in
    # three runs on a loaded 2-core x86-64 machine, against 6.5 s and
    # 9.3 s when every node copied the partition, rescanned every cell
    # and packed every leaf; the ceilings leave about three times the
    # slowest run
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    start = time.perf_counter()
    assert canonical_form(g.relabeled(perm)).data == canonical_form(g).data
    assert time.perf_counter() - start < ceiling_s


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


VERTEX_TRANSITIVE = {
    "petersen": petersen(),
    "cube": build_graph(
        8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    ),
    "C5": disjoint_cycles(1, 5),
    "C8": disjoint_cycles(1, 8),
    "C12": disjoint_cycles(1, 12),
    "two C7": disjoint_cycles(2, 7),
    "K33": build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "prism": build_graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    ),
}


@pytest.mark.parametrize("name", sorted(VERTEX_TRANSITIVE))
def test_vertex_transitive_graphs_match_the_full_tree(name):
    g = VERTEX_TRANSITIVE[name]
    perm = list(range(g.n))
    random.Random(name).shuffle(perm)
    want = reference_canonical_form(g)
    assert canonical_form(g).data == want
    assert canonical_form(g.relabeled(perm)).data == want


def count_leaves(monkeypatch, g) -> int:
    leaves = []

    def counting_key(edges, order, real=canon._leaf_key):
        leaves.append(len(order))
        return real(edges, order)

    monkeypatch.setattr(canon, "_leaf_key", counting_key)
    canonical_form(g)
    return len(leaves)


def test_final_graph_search_visits_four_leaves(monkeypatch, final_graph):
    # the full tree has 8 leaves; the automorphisms found prune half
    assert count_leaves(monkeypatch, final_graph) == 4


def test_final_graph_refinement_dequeues_408_splitters(monkeypatch, final_graph):
    # enqueuing every fragment of each split dequeues 800; the last
    # fragment can split nothing, and skipping it leaves 408
    popped = []

    class CountingDeque(deque):
        def popleft(self):
            popped.append(None)
            return super().popleft()

    monkeypatch.setattr(canon, "deque", CountingDeque)
    assert canonical_digest(final_graph) == "6acb9d9830286561"
    assert len(popped) == 408


def test_disjoint_cycles_stay_cheap(monkeypatch):
    # the full tree of five disjoint 7-cycles has about 14^5 * 5! leaves
    assert count_leaves(monkeypatch, disjoint_cycles(5, 7)) == 15


def test_pruning_uses_only_automorphisms_that_fix_the_node(monkeypatch):
    # orbit pruning at a node is sound only for automorphisms of the
    # graph that fix every vertex individualized above it
    merged = []

    def checked(node, v, real=canon._Node.in_explored_orbit):
        for gamma in node.fixing:
            assert gamma.keys().isdisjoint(node.prefix)
            image = {
                tuple(sorted((gamma.get(a, a), gamma.get(b, b)))) for a, b in g.edges
            }
            assert image == set(g.edges)
        merged.append(len(node.fixing))
        return real(node, v)

    # two 10-cycles joined by u -> 3u (mod 10) except at 0 and 5, beside
    # a third: here an automorphism found below one node moves the vertex
    # individualized at a later sibling
    twisted = build_graph(
        30,
        list(disjoint_cycles(3, 10).edges)
        + [(u, 10 + 3 * u % 10) for u in (1, 2, 3, 4, 6, 7, 8, 9)],
    )
    assert canonical_form(twisted).data == reference_canonical_form(twisted)
    monkeypatch.setattr(canon._Node, "in_explored_orbit", checked)
    for g in [twisted, disjoint_cycles(5, 7), *VERTEX_TRANSITIVE.values()]:
        canonical_form(g)
    assert sum(merged) > 0


def test_the_digest_hash_agrees_with_hashlib_across_block_boundaries():
    # SHA-256 pads and hashes in 64-byte blocks: lengths at and beside
    # every block multiple up to about 10,000 bytes, and random ones
    rng = random.Random(38)
    lengths = {0, 1, 55, 56, 57, 119, 120, 121}
    lengths |= {64 * k + d for k in range(1, 157) for d in (-1, 0, 1)}
    lengths |= {rng.randrange(10_001) for _ in range(50)}
    for n in sorted(lengths):
        data = rng.randbytes(n)
        assert canon.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest(), n
        expected = hashlib.sha256(data).hexdigest()[:16]
        assert canon.CanonicalForm(data).digest == expected


def test_the_hashlib_fallback_gives_the_pinned_digests():
    # with neither built-in module importable canon falls back to
    # hashlib, which must give the same digests
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from steinberg import (build_counterexample, build_triple_gadget,\n"
        "    canon, canonical_digest, load_seed_gadget)\n"
        "seed = load_seed_gadget()\n"
        "final = build_counterexample(build_triple_gadget(seed))\n"
        "print(canon.sha256 is hashlib.sha256)\n"
        "print(canonical_digest(seed.graph), canonical_digest(final))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(canon.__file__).parent.parent)},
    )
    assert out.stdout.split() == ["True", "3855c0a1d182d600", "6acb9d9830286561"]
