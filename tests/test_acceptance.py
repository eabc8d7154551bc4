"""End-to-end acceptance battery.

One test per claimed property bundle, each printing a single PASS line
with its wall-clock time (visible under ``pytest -s`` or in the captured
output).  Stated runtime ceilings are asserted, not just measured: a
regression that blows a budget fails the suite.
"""

import random
import time

import pytest

from steinberg import (
    PlanarityCertificate,
    brute_force_3coloring,
    build_graph,
    canonical_form,
    compositional_check,
    counterexample_report,
    cycles_of_length,
    distance,
    encode,
    decode,
    exhaustive_color_count,
    forbidden_cycle_check,
    is_planar,
    is_proper,
    solve_3coloring,
    solve_3coloring_with_stats,
    terminal_behavior,
    terminals_cofacial,
    triangle_edge_conflicts,
    triangles_sharing_edge,
    validate_planarity_certificate,
)
from steinberg.formats import FORMATS
from steinberg.graphs import remove_edge

from support import (
    graph6_reference,
    random_conflict_free_fixing,
    random_graph,
    random_sparse_graph,
    rup_refutes,
    subset_cycles,
    triangulated_grid,
)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(num: int, label: str, timer: Timer, limit: float | None = None) -> None:
    note = f" (limit {limit:g}s)" if limit else ""
    print(f"criterion {num} ({label}): PASS in {timer.elapsed:.2f}s{note}")
    if limit is not None:
        assert timer.elapsed < limit


def ceiling(label: str, timer: Timer, limit: float) -> None:
    print(f"hostile input ({label}): PASS in {timer.elapsed:.2f}s (limit {limit:g}s)")
    assert timer.elapsed < limit


def test_criterion_1_seed_lemma_suite(seed_gadget):
    g = seed_gadget.graph
    a, b, c = seed_gadget.terminals
    with Timer() as t:
        assert forbidden_cycle_check(g, {4, 5}) is None
        assert distance(g, a, b) == 3
        assert distance(g, a, c) == 3
        assert distance(g, b, c) == 4

        # the all-equal pattern dies under the solver and, independently,
        # under exhaustive enumeration of all 3^(n-3) extensions
        for color in (0, 1, 2):
            fixing = {a: color, b: color, c: color}
            assert solve_3coloring(g, fixing) is None
            assert exhaustive_color_count(g, fixing) == 0
        assert brute_force_3coloring(g, {a: 0, b: 0, c: 0}) is None

        cert = is_planar(g)
        assert cert.planar
        validate_planarity_certificate(g, cert)
        assert terminals_cofacial(seed_gadget)
    report(1, "seed lemma suite", t, limit=10)


def test_criterion_2_triple_lemma_suite(seed_gadget, triple_gadget):
    g1 = seed_gadget.graph
    g2 = triple_gadget.graph
    t0, t1, t2 = triple_gadget.terminals
    with Timer() as t:
        assert g2.n == 3 * g1.n - 3
        assert g2.m == 3 * g1.m + 3
        assert forbidden_cycle_check(g2, {4, 5}) is None
        for u, v in ((t0, t1), (t0, t2), (t1, t2)):
            assert distance(g2, u, v) == 4

        # one solve, its refutation checked by a RUP checker that shares
        # no code with the solver
        fixing = {t0: 0, t1: 0, t2: 0}
        result, stats = solve_3coloring_with_stats(g2, fixing)
        assert result is None
        assert rup_refutes(g2, fixing, stats.proof)
        # solver-free backing: the triple's table, derived from the seed's
        composed = compositional_check(
            seed_gadget, terminal_behavior(seed_gadget, frozenset())
        )
        assert composed["triple_stage"]["table"]["000"] is False
    report(2, "composite lemma suite", t, limit=30)


def test_criterion_3_theorem_suite(seed_gadget, final_graph):
    g = final_graph
    with Timer() as t:
        cert = is_planar(g)
        assert cert.planar
        validate_planarity_certificate(g, cert)
        assert forbidden_cycle_check(g, {4, 5}) is None

        # with nothing fixed the solver pins vertex 0 to color 0
        result, stats = solve_3coloring_with_stats(g)
        assert result is None
        assert rup_refutes(g, {0: 0}, stats.proof)

        composed = compositional_check(
            seed_gadget, terminal_behavior(seed_gadget, frozenset())
        )
        assert composed["ok"] and composed["counterexample"] is None
    report(3, "non-colorability theorem suite", t, limit=60)


def test_criterion_4_conjecture_hypotheses(final_graph):
    g = final_graph
    with Timer() as t:
        assert triangles_sharing_edge(g) == []
        assert cycles_of_length(g, 5) == []
        assert triangle_edge_conflicts(g) == []
        assert is_planar(g).planar
    report(4, "conjecture hypothesis enumeration", t)


def test_criterion_5_oracle_equivalence(small_graph_pool):
    rng = random.Random(170)
    checked = 0
    with Timer() as t:
        for n in sorted(small_graph_pool):
            for g in small_graph_pool[n]:
                plain_solver = solve_3coloring(g)
                plain_brute = brute_force_3coloring(g)
                assert (plain_solver is None) == (plain_brute is None)
                fixing = random_conflict_free_fixing(rng, g)
                fixed_solver = solve_3coloring(g, fixing)
                fixed_brute = brute_force_3coloring(g, fixing)
                assert (fixed_solver is None) == (fixed_brute is None)
                for sol in (plain_solver, fixed_solver):
                    if sol is not None:
                        assert is_proper(g, sol)
                checked += 1

        for i in range(500):
            n = 8 + i % 7
            p = 0.08 + 0.42 * (i / 499)
            g = random_graph(rng, n, p)
            fixing = random_conflict_free_fixing(rng, g)
            assert (solve_3coloring(g) is None) == (
                brute_force_3coloring(g) is None
            )
            assert (solve_3coloring(g, fixing) is None) == (
                brute_force_3coloring(g, fixing) is None
            )
            checked += 1
    assert checked == 1252 + 500
    report(5, "solver vs brute force equivalence", t, limit=300)


def test_criterion_6_structural_oracles(small_graph_pool, seed_gadget):
    rng = random.Random(629)
    pool = [g for n in sorted(small_graph_pool) for g in small_graph_pool[n]]
    pool += [random_graph(rng, n, p) for n in (8, 9, 10) for p in (0.15, 0.3, 0.45) for _ in range(10)]
    with Timer() as t:
        for g in pool:
            for k in (3, 4, 5, 6):
                got = set(cycles_of_length(g, k))
                assert got == subset_cycles(g, k)

        for g in pool:
            cert = is_planar(g)
            kind = validate_planarity_certificate(g, cert)
            if cert.planar and g.n >= 3:
                assert g.m <= 3 * g.n - 6
            assert kind in ((None,) if cert.planar else ("K5", "K3,3"))

        reference = canonical_form(seed_gadget.graph)
        perm = list(range(seed_gadget.graph.n))
        for _ in range(1000):
            rng.shuffle(perm)
            assert canonical_form(seed_gadget.graph.relabeled(perm)) == reference
    report(6, "structural oracles", t)


def test_criterion_7_perturbation_sensitivity(final_graph):
    g = final_graph
    at = g.vertex_by_label
    # each edge of the three extra triangles, with the canonical digest
    # of the final graph without it
    triangles = (
        ("d", "e", "f", "31f4b2730da3eb92", "31f4b2730da3eb92", "f432b8b4a820659b"),
        ("d'", "e'", "f'", "31f4b2730da3eb92", "31f4b2730da3eb92", "f432b8b4a820659b"),
        ("b", "c", "c'", "510e1eedf139fdcc", "b6e0b4ffa8a5d101", "510e1eedf139fdcc"),
    )
    with Timer() as t:
        assert canonical_form(g).digest == "6acb9d9830286561"
        deleted = 0
        for x, y, z, xy, yz, xz in triangles:
            for a, b, digest in ((x, y, xy), (y, z, yz), (x, z, xz)):
                weakened = remove_edge(g, at(a), at(b))
                assert canonical_form(weakened).digest == digest
                coloring = solve_3coloring(weakened)
                assert coloring is not None
                assert is_proper(weakened, coloring)
                deleted += 1
        assert deleted == 9
    report(7, "perturbation sensitivity", t)


def test_criterion_8_format_fidelity(seed_gadget, triple_gadget, final_graph):
    graphs = (seed_gadget.graph, triple_gadget.graph, final_graph)
    with Timer() as t:
        for g in graphs:
            for fmt in FORMATS:
                data = encode(g, fmt)
                back = decode(data, fmt)
                assert back.n == g.n and back.edges == g.edges
                assert encode(back, fmt) == data

        triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert encode(triangle, "graph6") == graph6_reference(3, triangle.edges)
        assert encode(triangle, "graph6") == b"Bw"
    report(8, "format fidelity", t)


# ---------------------------------------------------------------------------
# hostile inputs: each structural check is one pass over its input


def test_hostile_disjoint_triangles_certificate():
    k = 3000
    g = build_graph(3 * k, [
        (3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (1, 2), (0, 2))
    ])
    cert = is_planar(g)
    with Timer() as t:
        validate_planarity_certificate(g, cert)
    ceiling(f"certificate of {k:,} disjoint triangles", t, limit=2)


def test_hostile_triangulated_grid_triangle_check():
    w = 30
    g = triangulated_grid(w)
    with Timer() as t:
        conflicts = triangle_edge_conflicts(g)
    ceiling(f"triangle conflicts of a {w}x{w} triangulated grid", t, limit=1.5)
    # every inner edge lies on exactly two of the 2 * 29^2 triangles
    pairs = triangles_sharing_edge(g)
    assert len(pairs) == g.m - 4 * (w - 1)
    assert conflicts[: len(pairs)] == pairs and len(conflicts) > len(pairs)


def test_hostile_random_nonplanar_report():
    g = random_sparse_graph(random.Random(300), 300, 600)
    with Timer() as t:
        report = counterexample_report(g)
    ceiling("verify on a random graph with 300 vertices and 600 edges", t, limit=2)
    check = report.check("planarity")
    assert not check.passed
    witness = check.witness
    assert witness["kind"] in ("K5", "K3,3")
    cert = PlanarityCertificate(
        planar=False,
        obstruction_edges=tuple(tuple(e) for e in witness["edges"]),
    )
    assert validate_planarity_certificate(g, cert) == witness["kind"]
