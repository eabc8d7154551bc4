import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinberg import (
    ContractError,
    ImproperFixingError,
    OracleMismatchError,
    SizeGuardError,
    brute_force_3coloring,
    build_graph,
    check_fixed,
    encode,
    exhaustive_color_count,
    is_proper,
    load_seed_gadget,
    revalidate_unsat,
    solve_3coloring,
    solve_3coloring_with_stats,
    terminal_behavior,
)
from steinberg import canon, check, cli, coloring, gadgets, search
from steinberg.coloring import (
    SolveStats,
    all_equal_pattern,
    all_patterns,
    pattern_fixing,
    pattern_of,
    pattern_representative,
)
from steinberg.gadgets import InterfaceContract, TerminalGadget
from steinberg.graphs import remove_edge
from steinberg.search import certify_and_freeze

from support import (
    product_3coloring_exists,
    random_conflict_free_fixing,
    random_sparse_graph,
    reference_hints_refute,
    reference_solve,
    rup_refutes,
    stack_depth,
)
import random


K4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def graphs(max_n: int = 8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        return build_graph(n, sorted(chosen))

    return build()


# ---------------------------------------------------------------------------
# is_proper / check_fixed

def test_is_proper():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_proper(tri, {0: 0, 1: 1, 2: 2})
    assert not is_proper(tri, {0: 0, 1: 0, 2: 1})


def test_is_proper_rejects_partial_or_out_of_range():
    tri = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        is_proper(tri, {0: 0, 1: 1})
    with pytest.raises(ValueError):
        is_proper(tri, {0: 0, 1: 1, 2: 5})
    with pytest.raises(ValueError):  # a vertex outside 0..n-1, 2 left out
        is_proper(tri, {0: 0, 1: 1, 5: 2})


def test_check_fixed():
    g = build_graph(3, [(0, 1)])
    check_fixed(g, {0: 0, 1: 1})
    with pytest.raises(ImproperFixingError):
        check_fixed(g, {0: 0, 1: 0})
    with pytest.raises(ImproperFixingError):
        check_fixed(g, {5: 0})
    with pytest.raises(ImproperFixingError):
        check_fixed(g, {0: 3})


# ---------------------------------------------------------------------------
# the solver

def test_c5_witness_is_the_documented_one():
    # the solver is deterministic, so this is exact, not just some proper
    # coloring: vertex 0 is pinned, then each decision sets the smallest
    # open (vertex, color) variable false
    assert solve_3coloring(C5) == {0: 0, 1: 2, 2: 1, 3: 2, 4: 1}


def test_k4_unsat():
    assert solve_3coloring(K4) is None


def test_empty_graph_sat():
    assert solve_3coloring(build_graph(0, [])) == {}


def test_improper_fixing_is_an_error_not_unsat():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ImproperFixingError):
        solve_3coloring(g, {0: 1, 1: 1})


def test_solution_extends_fixing():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    got = solve_3coloring(g, {0: 2, 3: 1})
    assert got is not None and got[0] == 2 and got[3] == 1
    assert is_proper(g, got)


def test_stats_count_nodes():
    _, stats = solve_3coloring_with_stats(K4)
    assert stats.nodes >= 0
    sol, _ = solve_3coloring_with_stats(C5)
    assert sol is not None


@given(graphs(6))
@settings(max_examples=150, deadline=None)
def test_solver_agrees_with_plain_enumeration(g):
    assert (solve_3coloring(g) is not None) == product_3coloring_exists(g)


@given(graphs(7), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_solver_agrees_with_brute_force_under_fixings(g, seed):
    fixing = random_conflict_free_fixing(random.Random(seed), g)
    a = solve_3coloring(g, fixing)
    b = brute_force_3coloring(g, fixing)
    assert (a is None) == (b is None)
    if a is not None:
        assert is_proper(g, a)
        assert all(a[v] == c for v, c in fixing.items())


@given(graphs(7), st.permutations([0, 1, 2]))
@settings(max_examples=100, deadline=None)
def test_color_permutation_never_flips_the_verdict(g, perm):
    fixing = {v: v % 3 for v in range(min(g.n, 3))}
    try:
        check_fixed(g, fixing)
    except ImproperFixingError:
        fixing = {}
    permuted = {v: perm[c] for v, c in fixing.items()}
    assert (solve_3coloring(g, fixing) is None) == (
        solve_3coloring(g, permuted) is None
    )


def test_solver_counts_are_pinned_on_seed_and_triple(seed_gadget, triple_gadget):
    # a change that moves these counts or witnesses must say so; both
    # color without a single conflict
    for gadget, stats, witness in (
        (
            seed_gadget,
            SolveStats(nodes=8, propagations=45, conflicts=0),
            "022102101212120",
        ),
        (
            triple_gadget,
            SolveStats(nodes=16, propagations=126, conflicts=0),
            "022210210101022210102010212120102121210102",
        ),
    ):
        g = gadget.graph
        got, got_stats = solve_3coloring_with_stats(g)
        assert got_stats == stats
        assert got_stats.proof == []
        assert is_proper(g, got)
        assert "".join(str(got[v]) for v in range(g.n)) == witness


@pytest.mark.parametrize(
    "ends, stats, witness",
    [
        (
            ("d", "e"),
            SolveStats(nodes=403, propagations=3717, conflicts=34),
            (
                "002210112221021012102020121201010221010212121010221021012102"
                "020121202010121020212101020120112101020202101212120002112021"
                "2010102201121010202021012120200021020212110021"
            ),
        ),
        (
            ("b", "c"),
            SolveStats(nodes=132, propagations=1223, conflicts=8),
            (
                "021202021121021010102221010201021212010212121010210221201010"
                "221010212121010212012121002121021012012020120201011220110212"
                "1210102102212020101210021212100021120121210021"
            ),
        ),
    ],
    ids=["minus-d-e", "minus-b-c"],
)
def test_solver_counts_are_pinned_on_colorable_deletions(
    final_graph, ends, stats, witness
):
    # the final graph minus one triangle edge colors, after conflicts
    # that each learn a clause; a change that moves these must say so
    g = remove_edge(final_graph, *map(final_graph.vertex_by_label, ends))
    got, got_stats = solve_3coloring_with_stats(g)
    assert got_stats == stats
    assert len(got_stats.proof) == stats.conflicts
    assert is_proper(g, got)
    assert "".join(str(got[v]) for v in range(g.n)) == witness


def _steps_digest(stats):
    # every step's clause and hints, in order
    return hashlib.sha256(repr(stats.steps).encode()).hexdigest()


def test_solver_counts_are_pinned_on_final_graph(final_graph):
    result, stats = solve_3coloring_with_stats(final_graph)
    assert result is None
    assert stats == SolveStats(nodes=657, propagations=5781, conflicts=67)
    # every conflict but the last, at level 0, learns one clause; the
    # hinted steps add 32 level-0 units and the empty clause
    assert len(stats.proof) == 66
    assert len(stats.steps) == 99
    assert sum(len(hints) for _, hints in stats.steps) == 1119
    # the whole refutation, hint order included; a change to the solver
    # that moves this digest, or the one below, must say why
    assert _steps_digest(stats) == (
        "31f6890171560477fc817a0b5b359bfd98bca1baf4fcb07866015ddf693dd9bf"
    )
    assert rup_refutes(final_graph, {0: 0}, stats.proof)
    assert _both_checkers(final_graph, {0: 0}, stats.steps)


def test_solver_steps_are_pinned_on_a_colorable_deletion(final_graph):
    # without the d-e edge the solver finds a coloring after 34 conflicts
    g = final_graph
    h = remove_edge(g, g.vertex_by_label("d"), g.vertex_by_label("e"))
    result, stats = solve_3coloring_with_stats(h)
    assert result is not None and is_proper(h, result)
    assert stats == SolveStats(nodes=403, propagations=3717, conflicts=34)
    assert _steps_digest(stats) == (
        "33e693e8d678899bda07984352a0854efbbb6fd1b2ada632711f34b89c77596f"
    )


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_verify_refutes_the_final_graph_in_any_vertex_order(
    monkeypatch, final_graph, seed
):
    # paste order (None) and five seeded relabelings: the report passes
    # every check within 2 s, and the proof of its one solve passes a
    # checker that shares no code with the solver
    g = final_graph
    if seed is not None:
        g = g.relabeled(random.Random(seed).sample(range(g.n), g.n))
    solves = []
    solve = coloring.solve_3coloring_with_stats

    def recorded(graph, fixed=None):
        solves.append(solve(graph, fixed))
        return solves[-1]

    monkeypatch.setattr(coloring, "solve_3coloring_with_stats", recorded)
    start = time.perf_counter()
    report = gadgets.counterexample_report(g)
    assert time.perf_counter() - start < 2
    assert report.passed
    [(result, stats)] = solves
    assert result is None
    assert rup_refutes(g, {0: 0}, stats.proof)
    assert check.hints_refute(g.n, g.edges, {0: 0}, stats.steps)


def _edited(steps, k, clause=None, hints=None):
    """``steps`` with step k's clause or hints replaced."""
    old_clause, old_hints = steps[k]
    step = (
        old_clause if clause is None else clause,
        old_hints if hints is None else hints,
    )
    return [*steps[:k], step, *steps[k + 1 :]]


def _shifted(steps, by):
    """``steps`` with every step index among their hints raised by ``by``."""
    return [
        (clause, tuple(h + by if isinstance(h, int) else h for h in hints))
        for clause, hints in steps
    ]


def _proof_mutants(g, steps):
    """The hinted steps of a refutation of g, broken in each way a
    checker must catch: the first or last step dropped; no steps; a
    clause's first literal flipped, or moved 6n down, where a negative
    index would read it as itself; a hint dropped; two hints swapped
    where the later one uses what the earlier one derives; an edge pair
    hint given a second color or a non-edge; and a step citing itself
    or, put first, the last step."""
    steps = list(steps)
    mutants = {"first-dropped": steps[1:], "last-dropped": steps[:-1], "empty": []}
    if not steps:
        return mutants
    mutants["later-step"] = [((), (len(steps),)), *_shifted(steps, 1)]
    mutants["own-step"] = _edited(steps, len(steps) - 1, hints=(len(steps) - 1,))
    k = next((k for k, (clause, _) in enumerate(steps) if clause), None)
    if k is not None:
        lit, *rest = steps[k][0]
        mutants["flipped"] = _edited(steps, k, clause=(lit ^ 1, *rest))
        mutants["out-of-range"] = _edited(steps, k, clause=(lit - 6 * g.n, *rest))
    k = next((k for k, (_, hints) in enumerate(steps) if len(hints) > 1), None)
    if k is not None:
        mutants["hint-dropped"] = _edited(steps, k, hints=steps[k][1][1:])
    for k, (_, hints) in enumerate(steps):
        lits = [steps[h][0] if isinstance(h, int) else h for h in hints]
        # i stops short of the last hint: the conflict, put first, can
        # run the chain backwards and still close the step
        uses = ((j, i) for i in range(len(hints) - 1) for j in range(i)
                if any(lit ^ 1 in lits[j] for lit in lits[i]))
        j, i = next(uses, (None, None))
        if j is not None:
            swapped = list(hints)
            swapped[i], swapped[j] = hints[j], hints[i]
            mutants["hints-swapped"] = _edited(steps, k, hints=tuple(swapped))
            break
    pair = next((
        (k, i, h) for k, (_, hints) in enumerate(steps)
        for i, h in enumerate(hints) if not isinstance(h, int) and len(h) == 2
    ), None)
    if pair is not None:
        k, i, (a, b) = pair
        hints = list(steps[k][1])
        hints[i] = (a, b - b % 6 + (b % 6 + 2) % 6)
        mutants["mixed-color"] = _edited(steps, k, hints=tuple(hints))
        u = a // 6
        others = set(range(g.n)) - g.neighbor_sets[u] - {u}
        if others:
            x = min(others)
            hints[i] = (a, 6 * x + a % 6)
            mutants["non-edge"] = _edited(steps, k, hints=tuple(hints))
    return mutants


def _both_checkers(g, fixed, steps):
    """The package's verdict on hinted steps, which the table-driven
    reference checker must share; whenever it accepts, the naive
    reference must accept the steps' clauses up to the empty clause by
    unit propagation alone."""
    got = check.hints_refute(g.n, g.edges, fixed, steps)
    assert got == reference_hints_refute(g.n, g.edges, fixed, steps)
    if got:
        clauses = [tuple(clause) for clause, _ in steps]
        assert rup_refutes(g, fixed, clauses[: clauses.index(())])
    return got


def test_checker_rejects_proofs_that_do_not_refute(final_graph):
    g = final_graph
    result, stats = solve_3coloring_with_stats(g)
    assert result is None
    steps = stats.steps
    assert _both_checkers(g, {0: 0}, steps)
    # the proof of a different graph: minus d-e, the graph colors, so no
    # proof of it can pass
    weakened = remove_edge(g, g.vertex_by_label("d"), g.vertex_by_label("e"))
    assert solve_3coloring(weakened) is not None
    assert not _both_checkers(weakened, {0: 0}, steps)
    # "vertex 0 takes color 1" contradicts the pin, so no hint proves it
    contradicting = [((2,), ((0, 2, 4),)), *_shifted(steps, 1)]
    assert not _both_checkers(g, {0: 0}, contradicting)
    # every mutant breaks the chain
    mutants = _proof_mutants(g, steps)
    assert len(mutants) == 11
    for name, mutant in mutants.items():
        assert not _both_checkers(g, {0: 0}, mutant), name


def test_checker_takes_literals_in_0_to_6n_less_1_only(final_graph):
    g = final_graph
    _, stats = solve_3coloring_with_stats(g)
    last = 6 * g.n - 1
    u = min(g.neighbor_sets[g.n - 1])
    pair = (6 * u + 5, last)

    def ends(top):
        ends = [((0,), ((0, 2, 4),)), ((*pair, top), (pair,))]
        return [*ends, *_shifted(stats.steps, len(ends))]

    # "vertex 0 takes color 0" follows from the pin, and the input clause
    # "u or n-1 lacks color 2" with any literal added from itself, so
    # steps at both ends of the range keep a proof valid
    assert _both_checkers(g, {0: 0}, ends(last))
    # a literal past either end names no vertex and color: a proof that
    # holds one is rejected, though no hint reads it and however valid
    # the steps after it (through a negative index, -1 would read as 6n-1)
    for bad in (last + 1, -1):
        assert not _both_checkers(g, {0: 0}, ends(bad))


def test_final_proof_fails_on_every_one_edge_deletion(final_graph):
    # each of the final graph's 300 one-edge deletions is 3-colorable
    # (the graph is 4-critical), so its refutation must fail on every one
    g = final_graph
    _, stats = solve_3coloring_with_stats(g)
    accepted = [
        (u, v) for u, v in g.edges
        if _both_checkers(remove_edge(g, u, v), {0: 0}, stats.steps)
    ]
    assert len(g.edges) == 300 and accepted == []


def test_checker_rejects_random_clause_lists_on_colorable_graphs():
    # a graph whose edges all join two classes of a hidden 3-coloring has
    # no refutation, so every random list of hinted steps ending in the
    # empty clause fails; each hint is an earlier step, an input clause
    # or a random pair
    rng = random.Random(3118)
    for _ in range(1000):
        n = rng.randint(2, 7)
        hidden = [rng.randrange(3) for _ in range(n)]
        g = build_graph(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if hidden[u] != hidden[v] and rng.random() < 0.7
        ])
        inputs = [(6 * v, 6 * v + 2, 6 * v + 4) for v in range(n)] + [
            (6 * u + c, 6 * v + c) for u, v in g.edges for c in (1, 3, 5)
        ]

        def hint(k):
            roll = rng.random()
            if k and roll < 0.2:
                return rng.randrange(k)
            if roll < 0.9:
                return rng.choice(inputs)
            return (rng.randrange(6 * n), rng.randrange(6 * n))

        steps = [
            (
                tuple(rng.randrange(6 * n) for _ in range(rng.randint(0, 3))),
                tuple(hint(k) for _ in range(rng.randint(1, 6))),
            )
            for k in range(rng.randint(1, 8))
        ]
        steps[-1] = ((), steps[-1][1])
        assert not _both_checkers(g, {0: 0}, steps)


def test_a_clause_with_two_open_literals_is_not_a_unit():
    # on the diamond (K4 less 0-2), with both literals of the tautology
    # "vertex 2 takes color 2 or does not" assumed false, these hints
    # color 1 and 3 alike, so they prove it; it forces nothing, but taken
    # as the unit "vertex 2 takes color 2" it would let the same hints
    # refute a colorable graph
    diamond = build_graph(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])
    hints = ((11, 17), (17, 23), (1, 7), (6, 8, 10), (1, 19), (18, 20, 22), (9, 21))
    assert not _both_checkers(diamond, {0: 0}, [((16, 17), hints), ((), hints)])
    # on the path 1-0-2 with 1 and 2 fixed to colors 1 and 2, step 0
    # proves "vertex 0 takes color 0 or 2"; cited with vertex 0's color
    # open, it leaves both literals open and forces neither, but taken as
    # "vertex 0 takes color 2" the edge 0-2 would close the empty clause
    path = build_graph(3, [(0, 1), (0, 2)])
    steps = [((0, 4), ((0, 2, 4), (3, 9))), ((), (0, (5, 17)))]
    assert not _both_checkers(path, {1: 1, 2: 2}, steps)


def test_a_step_cites_only_earlier_steps():
    # the empty clause citing itself, a later empty clause, or the last
    # step through a negative index would close at once and refute C5
    for steps in ([((), (0,))], [((), (1,)), ((), ((0, 2, 4),))], [((), (-1,))]):
        assert not _both_checkers(C5, {0: 0}, steps)
    # while K4's proof stays valid with each input clause it uses restated
    # as a step, from step 0 up, and cited by index
    _, stats = solve_3coloring_with_stats(K4)
    steps = stats.steps
    inputs = sorted({h for _, hints in steps for h in hints if isinstance(h, tuple)})
    restated = [(h, (h,)) for h in inputs]
    for clause, hints in steps:
        cited = (inputs.index(h) if h in inputs else h + len(inputs) for h in hints)
        restated.append((clause, tuple(cited)))
    assert _both_checkers(K4, {0: 0}, restated)


def test_an_input_hint_is_an_at_least_one_triple_or_an_edge_pair():
    # each hint here is false under its fixing, so it would close the one
    # step and refute a colorable graph, were it taken as an input clause:
    # a non-edge's pair, a pair of two colors, a vertex's triple short of
    # a color, and a triple across two vertices
    for g, fixed, hint in (
        (build_graph(2, []), {0: 0, 1: 0}, (1, 7)),
        (build_graph(2, [(0, 1)]), {0: 0, 1: 1}, (1, 9)),
        (build_graph(1, []), {0: 2}, (0, 2)),
        (build_graph(2, []), {0: 0, 1: 2}, (4, 6, 8)),
    ):
        assert not _both_checkers(g, fixed, [((), (hint,))]), hint


# K4 on 0..3 and a pendant vertex 4 on 3: 6n = 30, and the last edge,
# 3-4, ends at the last vertex
K4_PENDANT = build_graph(5, [*K4.edges, (3, 4)])


def _after_step(clause, *hints):
    """K4_PENDANT's refutation under {0: 0} after one more step,
    ``clause`` with ``hints``."""
    _, stats = solve_3coloring_with_stats(K4_PENDANT)
    return [(clause, hints), *_shifted(stats.steps, 1)]


def test_input_hints_at_the_boundaries_of_the_arithmetic():
    # each step is proved by one hint, every literal of which its clause
    # assumes false, so the proof is accepted exactly when the hint is an
    # input clause
    accepted = [*itertools.permutations((24, 26, 28))]
    for c in (1, 3, 5):
        accepted += [(18 + c, 24 + c), (24 + c, 18 + c), (c, 18 + c)]
    for hint in accepted:
        assert _both_checkers(K4_PENDANT, {0: 0}, _after_step(hint, hint)), hint
    rejected = {
        # vertex n's literals are past 6n - 1, so no clause can hold
        # them; taken as an input clause, the hint is read out of range
        "triple of vertex n": ((), (30, 32, 34)),
        "pair past vertex n - 1": ((19,), (19, 31)),
        "repeated literal": ((24, 26), (24, 24, 26)),
        "repeated last literal": ((24, 28), (24, 28, 28)),
        "triple across vertices": ((20, 22, 24), (22, 24, 20)),
        "triple of odd literals": ((25, 27, 29), (25, 27, 29)),
        "two colors": ((19, 27), (19, 27)),
        "two colors, larger first": ((21, 25), (25, 21)),
        "non-edge": ((1, 25), (1, 25)),
        "one vertex with itself": ((25,), (25, 25)),
        "two positive literals": ((18, 24), (24, 18)),
        # through a negative index -5 reads as 25, the pair's partner on
        # the edge 3-4, and -6, -4, -2 as vertex 4's triple
        "negative literal": ((19, 25), (19, -5)),
        "negative triple": ((24, 26, 28), (-6, -4, -2)),
        "empty tuple": ((), ()),
        "four literals": ((24, 26, 28, 29), (24, 26, 28, 29)),
    }
    for name, (clause, hint) in rejected.items():
        steps = _after_step(clause, hint)
        assert not _both_checkers(K4_PENDANT, {0: 0}, steps), name


def test_a_hint_may_derive_a_literal_that_already_holds():
    # under the pin, vertex 0's triple leaves open only "vertex 0 takes
    # color 0", which holds already; the step must not undo the pin as it
    # undoes what it derived, for the proof after it rests on the pin
    steps = _after_step((24, 26, 28), (0, 2, 4), (24, 26, 28))
    assert _both_checkers(K4_PENDANT, {0: 0}, steps)


@st.composite
def coin_flip_graphs(draw, max_n=9):
    """Each pair an edge with even odds: about a third are UNSAT."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@given(coin_flip_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=300, deadline=None)
def test_replay_matches_the_reference_checker(g, seed):
    # on every UNSAT proof, under a random fixing of up to three vertices
    # (the solver's own {0: 0} pin when it is empty), the package and the
    # table-driven reference accept the hinted steps and the naive
    # reference their clauses; on each mutant the two checkers agree, and
    # the naive reference accepts whatever they accept
    rng = random.Random(seed)
    fixed = random_conflict_free_fixing(rng, g, rng.randrange(4)) or {0: 0}
    result, stats = solve_3coloring_with_stats(g, fixed)
    if result is not None:
        return
    assert _both_checkers(g, fixed, stats.steps)
    for mutant in _proof_mutants(g, stats.steps).values():
        _both_checkers(g, fixed, mutant)


def _edited_at_random(rng, g, steps):
    """``steps`` with one random edit to one step: a hint replaced by an
    earlier or nearby step index, a random input clause or a tuple of
    random literals near the ends of the range; one literal of a tuple
    hint or of the clause negated or moved by a few places; a tuple
    hint's literals shuffled; or a hint dropped or repeated."""
    n = g.n
    k = rng.randrange(len(steps))
    clause, hints = steps[k]
    hints = list(hints)
    i = rng.randrange(len(hints))
    lit = rng.choice([rng.randrange(-6, 6), rng.randrange(6 * n - 6, 6 * n + 6)])
    kind = rng.randrange(7)
    if kind == 0:
        hints[i] = rng.randrange(-2, k + 2)
    elif kind == 1:
        v = rng.randrange(n)
        inputs = [(6 * v, 6 * v + 2, 6 * v + 4)]
        inputs += [(6 * u + c, 6 * w + c) for u, w in g.edges for c in (1, 3, 5)]
        hints[i] = rng.choice(inputs)
    elif kind == 2:
        hints[i] = tuple(lit + 2 * j for j in range(rng.randrange(5)))
    elif kind == 3 and not isinstance(hints[i], int):
        lits = list(hints[i])
        j = rng.randrange(len(lits))
        lits[j] = rng.choice([lits[j] ^ 1, lits[j] + 2, lits[j] - 6, lits[j] + 6])
        hints[i] = tuple(lits)
    elif kind == 4 and not isinstance(hints[i], int):
        hints[i] = tuple(rng.sample(hints[i], len(hints[i])))
    elif kind == 5 and clause:
        lits = list(clause)
        j = rng.randrange(len(lits))
        lits[j] = rng.choice([lits[j] ^ 1, lits[j] + 6, lit])
        clause = tuple(lits)
    elif rng.random() < 0.5:
        del hints[i]
    else:
        hints.insert(i, hints[i])
    return _edited(steps, k, clause=clause, hints=tuple(hints))


@given(coin_flip_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=300, deadline=None)
def test_both_checkers_agree_on_randomly_edited_proofs(g, seed):
    # the package's arithmetic on input clauses and the reference's table
    # give one verdict on each of 20 random one-step edits of a
    # refutation, under a random conflict-free fixing
    rng = random.Random(seed)
    fixed = random_conflict_free_fixing(rng, g, rng.randrange(4)) or {0: 0}
    result, stats = solve_3coloring_with_stats(g, fixed)
    if result is not None:
        return
    for _ in range(20):
        _both_checkers(g, fixed, _edited_at_random(rng, g, stats.steps))


def _same_search(g, fixed=None, *, limit=1e100, decay=0.95):
    """The solver's coloring, counters and proof equal those of the
    reference search over the explicit clause list; returns the first
    two."""
    got, stats = solve_3coloring_with_stats(g, fixed)
    want, counts, steps = reference_solve(g, fixed, limit=limit, decay=decay)
    assert got == want
    assert (stats.nodes, stats.propagations, stats.conflicts) == counts
    assert stats.proof == steps
    return got, stats


def _assert_same_search(g, fixed=None):
    return _same_search(g, fixed)[0]


@given(coin_flip_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=300, deadline=None)
def test_solver_matches_the_clause_list_reference(g, seed):
    _assert_same_search(g, random_conflict_free_fixing(random.Random(seed), g))


def _final_graph_family(g):
    """The nine colorable one-edge deletions the benchmark verifies, then
    two relabelings of the final graph, each refuted, with whether each
    is colorable."""
    for tri in (("d", "e", "f"), ("d'", "e'", "f'"), ("b", "c", "c'")):
        for a, b in itertools.combinations(tri, 2):
            yield remove_edge(g, g.vertex_by_label(a), g.vertex_by_label(b)), True
    for seed in (1, 2):
        yield g.relabeled(random.Random(seed).sample(range(g.n), g.n)), False


def test_solver_matches_the_reference_on_the_final_graph_family(final_graph):
    for h, colorable in _final_graph_family(final_graph):
        assert (_assert_same_search(h) is not None) == colorable


@pytest.mark.parametrize(
    "decay, limit", [(1.0, 1e100), (0.95, 3.0)], ids=["equal-bumps", "limit-3"]
)
def test_solver_matches_the_reference_through_activity_ties(
    monkeypatch, final_graph, decay, limit
):
    # the solver sorts its previous decision order again after a
    # conflict, and sorts afresh when two activities may have become
    # equal.  At decay 1.0 every bump is 1.0, so variables bumped in
    # different conflicts tie at every conflict; a limit of 3.0 rescales
    # 51 times in the family's 895 conflicts, and 1 / 3 rounds, so a
    # rescale can merge two values
    monkeypatch.setattr(coloring, "_ACTIVITY_DECAY", decay)
    monkeypatch.setattr(coloring, "_ACTIVITY_LIMIT", limit)
    for h, colorable in _final_graph_family(final_graph):
        got, _ = _same_search(h, limit=limit, decay=decay)
        assert (got is not None) == colorable


def test_solver_matches_the_reference_when_a_rescale_merges_activities(
    monkeypatch,
):
    # at decay 0.5 the bump doubles at every conflict, so a limit of 3.0
    # rescales at nearly every one; on this graph the rounding of 1 / 3
    # makes two activities equal that were ordered against their
    # variables, which only a fresh sort puts back in the reference's order
    monkeypatch.setattr(coloring, "_ACTIVITY_DECAY", 0.5)
    monkeypatch.setattr(coloring, "_ACTIVITY_LIMIT", 3.0)
    rng = random.Random(93)
    n = rng.randrange(20, 120)
    got, stats = _same_search(
        random_sparse_graph(rng, n, int(n * 2.3)), limit=3.0, decay=0.5
    )
    assert got is None
    assert stats.conflicts == 53


@pytest.mark.parametrize(
    "n, m, seed, colorable",
    [(1000, 2000, 10, True), (200, 460, 4, False)],
    ids=["1000-vertices-colorable", "200-vertices-refuted"],
)
def test_solver_matches_the_reference_over_hundreds_of_conflicts(
    n, m, seed, colorable
):
    # every conflict sorts the decision order again, so a long search
    # must still pick each decision exactly as the reference's heap does
    got, stats = _same_search(random_sparse_graph(random.Random(seed), n, m))
    assert (got is not None) == colorable
    assert stats.conflicts >= 300


def test_activity_rescale_matches_the_reference(monkeypatch, final_graph):
    # the default limit takes about 4,500 conflicts to pass; at 1e3 the
    # bump alone passes it after log(1e3) / -log(0.95), about 135
    monkeypatch.setattr(coloring, "_ACTIVITY_LIMIT", 1e3)
    h = final_graph.relabeled(random.Random(1).sample(range(166), 166))
    got, stats = _same_search(h, limit=1e3)
    assert got is None
    assert stats.conflicts > math.log(1e3) / -math.log(0.95)


def _count_solves(monkeypatch):
    """Record the fixing of every solver call; every verdict in the
    package solves through the one binding in ``coloring``."""
    calls = []
    solve = coloring.solve_3coloring_with_stats

    def counted(g, fixed=None):
        calls.append(dict(fixed or {}))
        return solve(g, fixed)

    monkeypatch.setattr(coloring, "solve_3coloring_with_stats", counted)
    return calls


def test_report_refutes_the_final_graph_in_one_solve(monkeypatch, final_graph):
    # the verdict comes from one solver call with nothing fixed: no split
    # into pinned branches, no re-solve after it
    calls = _count_solves(monkeypatch)
    check = gadgets.counterexample_report(final_graph).check("not-3-colorable")
    assert check.passed
    assert calls == [{}]
    # solver_nodes counts the solve's decisions; the proof of its 67
    # conflicts was replayed by a checker that shares no code with it
    assert check.details == {
        "solver_nodes": 657,
        "conflicts": 67,
        "proof_clauses": 66,
        "proof_literals": 241,
        "proof": "rup-checked",
    }


@given(graphs(7))
@settings(max_examples=150, deadline=None)
def test_unfixed_solve_pins_vertex_0_to_color_0(g):
    # permuting the colors maps colorings to colorings, so the pin loses
    # nothing: the verdict still matches brute force over every color
    got = solve_3coloring(g)
    assert (got is None) == (brute_force_3coloring(g) is None)
    if got is not None:
        assert is_proper(g, got)
        assert g.n == 0 or got[0] == 0


def test_deep_branching_does_not_recurse():
    # a path takes one decision per vertex; the search must not spend a
    # Python frame on each of them
    n = 120
    path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        got, stats = solve_3coloring_with_stats(path)
    finally:
        sys.setrecursionlimit(limit)
    # vertex 0 is pinned; each other vertex, its predecessor's color
    # already ruled out, needs one decision (its smallest open color set
    # false) and takes the last color by propagation, with no conflict
    assert stats == SolveStats(nodes=n - 1, propagations=3 * n, conflicts=0)
    assert got is not None and is_proper(path, got)


def test_one_solver_binding_sees_every_solve(monkeypatch, seed_gadget, tmp_path):
    # lemmas: the seed's pattern-000 clause and the seed's four feasible
    # behavior rows, the triple's row read off the checked case tree; a
    # freeze: the seed's clause and the same four rows.  Each takes the
    # all-equal row from the seed's clause, and the freeze sweeps nothing
    calls = _count_solves(monkeypatch)
    assert gadgets.lemmas_report(seed_gadget).passed
    assert len(calls) == 5
    calls.clear()

    def no_sweep(*args):
        raise AssertionError("the freeze ran the exhaustive sweep")

    for module in (coloring, gadgets, search):
        monkeypatch.setattr(
            module, "exhaustive_color_count", no_sweep, raising=False
        )
    certify_and_freeze(seed_gadget, tmp_path / "seed.json")
    assert len(calls) == 5


def test_a_find_freezes_with_its_behavior_rows_alone(monkeypatch, tmp_path):
    # the search passed the find's clauses and co-facial test and kept its
    # digest: the freeze solves the four feasible rows and runs neither
    # planarity nor a canonical form
    find = next(iter(search.search_gadget(search.seed_search_spec())))
    calls = _count_solves(monkeypatch)
    counted = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counted.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(gadgets, "is_planar")
    for module in (canon, search):
        counting(module, "canonical_form")
    certify_and_freeze(find, tmp_path / "find.json")
    assert len(calls) == 4 and {0: 0, 1: 0, 2: 0} not in calls
    assert counted == []


def test_freeze_refuses_a_feasible_forbidden_pattern_with_no_extra_solve(
    monkeypatch, seed_gadget, tmp_path
):
    # the table takes a forbidden row from its clause only once the
    # clause has passed: a contract forbidding the feasible "012" is
    # refused by that clause, after the contract's own two solves alone
    contract = dataclasses.replace(
        seed_gadget.contract, forbidden_patterns=frozenset({"000", "012"})
    )
    gadget = TerminalGadget(seed_gadget.graph, seed_gadget.terminals, contract)
    calls = _count_solves(monkeypatch)
    path = tmp_path / "seed.json"
    with pytest.raises(ContractError, match="clause pattern-012-infeasible") as exc:
        certify_and_freeze(gadget, path)
    assert exc.value.clause == "pattern-012-infeasible"
    assert calls == [{0: 0, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 2}]
    assert not path.exists()


def _all_zero_with_stats(g, fixed=None):
    return {v: 0 for v in range(g.n)}, SolveStats()


# each run reaches the solver through ``coloring._coloring_check``
_IMPROPER_WITNESS_RUNS = {
    "counterexample-report": lambda: gadgets.counterexample_report(C5),
    "verify-contract": lambda: gadgets.verify_contract(
        _bare_gadget(C5, (0, 1, 2), frozenset({"012"}))
    ),
    "terminal-behavior": lambda: terminal_behavior(
        _bare_gadget(C5, (0, 2)), frozenset()
    ),
}


@pytest.mark.parametrize(
    "run", _IMPROPER_WITNESS_RUNS.values(), ids=list(_IMPROPER_WITNESS_RUNS)
)
def test_improper_solver_witness_is_an_oracle_mismatch(monkeypatch, run):
    monkeypatch.setattr(coloring, "solve_3coloring_with_stats", _all_zero_with_stats)
    with pytest.raises(OracleMismatchError):
        run()


def test_improper_solver_witness_is_caught_under_python_O():
    # the same three runs in a child with assertions stripped: the
    # mismatch is raised, not asserted, so it survives -O
    code = (
        "import sys\n"
        "from steinberg import OracleMismatchError, coloring\n"
        "import test_coloring as t\n"
        "coloring.solve_3coloring_with_stats = t._all_zero_with_stats\n"
        "print(sys.flags.optimize)\n"
        "for name, run in t._IMPROPER_WITNESS_RUNS.items():\n"
        "    try:\n"
        "        run()\n"
        "    except OracleMismatchError:\n"
        "        print(name)\n"
    )
    src = os.path.dirname(os.path.dirname(coloring.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.split() == ["1", *_IMPROPER_WITNESS_RUNS]


# proofs that must not pass: the final graph's own hinted steps mutated,
# or its intact steps on the final graph minus d-e, which colors
_BAD_REFUTATIONS = (
    "first-dropped", "last-dropped", "flipped", "edge-removed", "empty",
    "hint-dropped", "hints-swapped", "later-step", "own-step",
    "mixed-color", "non-edge", "out-of-range",
)


def _bad_refutation(g, name):
    """The graph and the steps of one bad refutation of the final graph
    g, or with ``name`` "intact" the control: g and its own steps."""
    _, stats = solve_3coloring_with_stats(g)
    if name == "intact":
        return g, stats.steps
    if name == "edge-removed":
        return remove_edge(g, g.vertex_by_label("d"), g.vertex_by_label("e")), stats.steps
    return g, _proof_mutants(g, stats.steps)[name]


def _claiming_unsat(steps):
    """A solver stand-in that calls every query UNSAT with ``steps`` as
    its hinted proof."""
    return lambda g, fixed=None: (None, SolveStats(steps=list(steps)))


def _verify_claiming_unsat(g, steps, path):
    """The exit code of ``steinberg verify`` on ``g`` while the solver
    claims UNSAT with ``steps`` as its proof."""
    path.write_bytes(encode(g, "graph6"))
    solve = coloring.solve_3coloring_with_stats
    coloring.solve_3coloring_with_stats = _claiming_unsat(steps)
    try:
        return cli.main(["verify", str(path)])
    finally:
        coloring.solve_3coloring_with_stats = solve


def test_intact_steps_pass_through_the_unsat_stand_in(tmp_path, capsys, final_graph):
    # the control for the bad refutations below: the same stand-in with
    # the final graph's own steps verifies, so each refusal is the checker's
    g, steps = _bad_refutation(final_graph, "intact")
    assert _verify_claiming_unsat(g, steps, tmp_path / "g.g6") == 0
    assert "ORACLE MISMATCH" not in capsys.readouterr().err


@pytest.mark.parametrize("name", _BAD_REFUTATIONS)
def test_bad_refutation_is_an_oracle_mismatch(
    monkeypatch, tmp_path, capsys, final_graph, name
):
    g, steps = _bad_refutation(final_graph, name)
    assert _verify_claiming_unsat(g, steps, tmp_path / "g.g6") == 1
    assert capsys.readouterr().err.startswith("ORACLE MISMATCH: ")
    monkeypatch.setattr(coloring, "solve_3coloring_with_stats", _claiming_unsat(steps))
    with pytest.raises(OracleMismatchError, match="RUP check"):
        gadgets.counterexample_report(g)


def test_bad_refutation_is_caught_under_python_O(tmp_path):
    # the same verify runs in a child with assertions stripped, after
    # the intact control: the rejected proof is raised, not asserted, so
    # it survives -O
    code = (
        "import contextlib, io, sys\n"
        "from pathlib import Path\n"
        "from steinberg import build_counterexample, build_triple_gadget\n"
        "import test_coloring as t\n"
        "print(sys.flags.optimize)\n"
        "g = build_counterexample(build_triple_gadget(t.load_seed_gadget()))\n"
        "for name in ('intact', *t._BAD_REFUTATIONS):\n"
        "    bad = t._bad_refutation(g, name)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = t._verify_claiming_unsat(*bad, Path(sys.argv[1]))\n"
        "    print(name, code)\n"
    )
    src = os.path.dirname(os.path.dirname(coloring.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code, str(tmp_path / "g.g6")],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.split() == [
        "1", "intact", "0",
        *(word for name in _BAD_REFUTATIONS for word in (name, "1")),
    ]
    assert out.stderr.count("ORACLE MISMATCH: ") == len(_BAD_REFUTATIONS)


# ---------------------------------------------------------------------------
# brute force and the exhaustive sweep

def test_brute_force_returns_lexicographically_first():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert brute_force_3coloring(p3, {0: 0, 2: 0}) == {0: 0, 1: 1, 2: 0}
    # free vertices scanned in index order, colors in 0..2
    assert brute_force_3coloring(p3) == {0: 0, 1: 1, 2: 0}


def test_brute_force_unsat_and_guard():
    assert brute_force_3coloring(K4) is None
    big = build_graph(26, [])
    with pytest.raises(SizeGuardError):
        brute_force_3coloring(big)
    # fixing counts against the free-vertex budget
    assert brute_force_3coloring(big, {v: 0 for v in range(10)}) is not None


def test_exhaustive_color_count():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert exhaustive_color_count(tri) == 6
    assert exhaustive_color_count(tri, {0: 0}) == 2
    assert exhaustive_color_count(K4) == 0
    assert exhaustive_color_count(build_graph(2, [])) == 9
    with pytest.raises(SizeGuardError):
        exhaustive_color_count(build_graph(17, []))


def _path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _walks(length, same_ends):
    # 3-colorings of a path of `length` edges with both ends precolored
    return (2**length + (2 if same_ends else -1) * (-1) ** length) // 3


@pytest.mark.parametrize("n", range(8, 17))
def test_exhaustive_count_matches_closed_forms(n):
    # past 9 free vertices the sweep runs in several chunks
    assert exhaustive_color_count(_cycle(n)) == 2**n + 2 * (-1) ** n
    assert exhaustive_color_count(_path(n)) == 3 * 2 ** (n - 1)


@pytest.mark.parametrize("end_color", [0, 1])
def test_exhaustive_count_with_fixings_across_chunks(end_color):
    # 14 vertices with 7 and 13 fixed: 12 free, so the 9 free vertices
    # 0..6, 8 and 9 span each chunk's rows and 10..12 are colored per
    # chunk; the edge 6-7 joins a row-spanning vertex to a fixed one, 9-10
    # one to a per-chunk vertex, and 12-13 a per-chunk vertex to a fixed one
    fixed = {7: 0, 13: end_color}
    same = end_color == 0
    # the path: 0..6 hangs off vertex 7, 8..12 runs from 7 to 13
    assert exhaustive_color_count(_path(14), fixed) == 2**7 * _walks(6, same)
    # the cycle: arcs of 6 and 8 edges between the two fixed vertices
    assert exhaustive_color_count(_cycle(14), fixed) == _walks(6, same) * _walks(8, same)


def test_import_leaves_numpy_unloaded():
    # no module needs numpy, the exhaustive sweep included
    code = (
        "import sys, steinberg\n"
        "seed = steinberg.load_seed_gadget()\n"
        "fixing = {t: 0 for t in seed.terminals}\n"
        "assert steinberg.exhaustive_color_count(seed.graph, fixing) == 0\n"
        "print('numpy' in sys.modules)"
    )
    # the child imports the same package as this test run
    src = os.path.dirname(os.path.dirname(coloring.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.strip() == "False"


@given(graphs(6))
@settings(max_examples=100, deadline=None)
def test_count_positive_iff_solver_sat(g):
    assert (exhaustive_color_count(g) > 0) == (solve_3coloring(g) is not None)


# ---------------------------------------------------------------------------
# terminal patterns

def test_pattern_of_normalizes_by_first_occurrence():
    assert pattern_of([2, 2, 0]) == "001"
    assert pattern_of([1, 0, 2]) == "012"
    assert pattern_of([0, 0, 0]) == "000"
    assert all_equal_pattern(3) == "000"


def test_pattern_table_agrees_with_the_loop():
    # tuples of 1 to 4 colors are read from a table, anything else is
    # normalized by the loop that filled it
    def loop(colors):
        first = {}
        return "".join(str(first.setdefault(c, len(first))) for c in colors)

    for t in range(1, 5):
        for colors in itertools.product(range(3), repeat=t):
            assert pattern_of(list(colors)) == loop(colors)
    assert pattern_of([2, 1, 0, 2, 1]) == loop([2, 1, 0, 2, 1]) == "01201"
    assert pattern_of([]) == ""


def test_all_patterns_arity_three():
    assert all_patterns(3) == ["000", "001", "010", "011", "012"]


def test_pattern_representative_round_trips():
    for t in (2, 3, 4):
        for p in all_patterns(t):
            assert pattern_of(pattern_representative(p)) == p


@given(graphs(6), st.integers(min_value=0, max_value=2**31 - 1))
@example(load_seed_gadget().graph, 0)  # 15 vertices: several sweep chunks
@settings(max_examples=60, deadline=None)
def test_pattern_counts_partition_all_colorings(g, seed):
    # the pattern classes of three chosen vertices partition the space of
    # proper colorings, so the weighted representative counts add up
    if g.n < 3:
        return
    rng = random.Random(seed)
    terms = rng.sample(range(g.n), 3)
    total = exhaustive_color_count(g)
    weighted = 0
    for p in all_patterns(3):
        rep = pattern_representative(p)
        distinct = len({tuple(perm[c] for c in rep) for perm in itertools.permutations(range(3))})
        try:
            check_fixed(g, dict(zip(terms, rep)))
        except ImproperFixingError:
            continue
        weighted += distinct * exhaustive_color_count(g, dict(zip(terms, rep)))
    assert weighted == total


# ---------------------------------------------------------------------------
# terminal behavior

def _bare_gadget(g, terminals, forbidden_patterns=frozenset()):
    return TerminalGadget(
        g, terminals, InterfaceContract(forbidden_patterns=forbidden_patterns)
    )


def test_triangle_terminals_admit_only_all_distinct():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    behavior = terminal_behavior(_bare_gadget(tri, (0, 1, 2)), frozenset())
    # the rows come in all_patterns order
    assert list(behavior.items()) == [
        ("000", False),
        ("001", False),
        ("010", False),
        ("011", False),
        ("012", True),
    ]


def test_edgeless_gadget_is_not_forced_unequal():
    g = build_graph(3, [])
    behavior = terminal_behavior(_bare_gadget(g, (0, 1, 2)), frozenset())
    assert behavior["000"]


def test_seed_gadget_behavior_table(seed_gadget):
    table = terminal_behavior(seed_gadget, frozenset())
    assert table["000"] is False
    assert all(table[p] for p in ("001", "010", "011", "012"))


def test_contract_refuted_rows_leave_the_table_unchanged(seed_gadget, triple_gadget):
    # the rows a passing contract has refuted, taken without a solve,
    # read as the solver reads them: the seed in every terminal order
    # (its packaged order first) and the triple
    forbidden = InterfaceContract(
        forbidden_patterns=seed_gadget.contract.forbidden_patterns
    )
    cases = [
        TerminalGadget(seed_gadget.graph, order, forbidden)
        for order in itertools.permutations(seed_gadget.terminals)
    ]
    cases.append(triple_gadget)
    for gadget in cases:
        assert gadgets.verify_contract(gadget).passed
        refuted = gadget.contract.forbidden_patterns
        assert terminal_behavior(gadget, refuted) == terminal_behavior(
            gadget, frozenset()
        )


@given(graphs(7), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_truly_infeasible_rows_leave_the_table_unchanged(g, seed):
    # refuted is every pattern that an unpruned sweep finds infeasible
    rng = random.Random(seed)
    if g.n < 2:
        return
    terminals = tuple(rng.sample(range(g.n), rng.randint(2, min(4, g.n))))
    refuted = frozenset(
        p
        for p in all_patterns(len(terminals))
        if not product_3coloring_exists(g, pattern_fixing(terminals, p))
    )
    gadget = _bare_gadget(g, terminals)
    assert terminal_behavior(gadget, refuted) == terminal_behavior(
        gadget, frozenset()
    )


# ---------------------------------------------------------------------------
# UNSAT revalidation

def test_revalidate_unsat_on_k4():
    # each pinned branch is refuted after one decision
    assert revalidate_unsat(K4) == {
        "root": 0,
        "branches": [
            {"color": c, "verdict": "unsat", "nodes": 1} for c in (0, 1, 2)
        ],
    }


def test_revalidate_unsat_conflict_branches():
    # every color for the one free vertex collides with a fixed neighbor
    fixing = {1: 0, 2: 1, 3: 2}
    split = revalidate_unsat(K4, fixing)
    assert all(b["verdict"] == "conflict" for b in split["branches"])


def test_revalidate_unsat_rejects_satisfiable_input(monkeypatch):
    with pytest.raises(OracleMismatchError):
        revalidate_unsat(C5)
    # vertex 0 of a triangle pinned to 0 already colors: the split stops
    # at that first branch and names it
    calls = _count_solves(monkeypatch)
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(OracleMismatchError, match="vertex 0 pinned to color 0"):
        revalidate_unsat(tri)
    assert calls == [{0: 0}]
    # a total proper fixing needs no split: it is the coloring
    with pytest.raises(OracleMismatchError, match="fixing itself"):
        revalidate_unsat(tri, {0: 2, 1: 0, 2: 1})
    assert calls == [{0: 0}]
