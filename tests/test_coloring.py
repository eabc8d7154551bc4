import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import (
    ImproperFixingError,
    OracleMismatchError,
    SizeGuardError,
    brute_force_3coloring,
    build_graph,
    check_fixed,
    exhaustive_color_count,
    forced_unequal,
    is_proper,
    revalidate_unsat,
    solve_3coloring,
    solve_3coloring_with_stats,
    split_3coloring,
    terminal_behavior,
)
from steinberg import cli, coloring, gadgets
from steinberg.coloring import (
    SolveStats,
    _pair_classes,
    all_equal_pattern,
    all_patterns,
    pattern_of,
    pattern_representative,
)
from steinberg.gadgets import InterfaceContract, TerminalGadget

from support import (
    pair_classes_reference,
    product_3coloring_exists,
    random_conflict_free_fixing,
    random_graph,
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
    # fixed branching order makes this exact, not just some proper coloring
    assert solve_3coloring(C5) == {0: 0, 1: 1, 2: 0, 3: 1, 4: 2}


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


def test_parallel_stats_sum_the_workers():
    # each worker solves the root vertex pinned to one color; the pooled
    # counts must be the sum of those sequential solves, not a fresh zero
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    for g in (K4, c6):
        want = SolveStats()
        for c in (0, 1, 2):
            _, branch = solve_3coloring_with_stats(g, {0: c})
            want.nodes += branch.nodes
            want.propagations += branch.propagations
        _, got = solve_3coloring_with_stats(g, jobs=2)
        assert got == want
        assert got.propagations > 0
    assert got.nodes > 0


def test_parallel_verdict_matches_sequential():
    for g in (K4, C5, build_graph(6, [(i, (i + 1) % 6) for i in range(6)])):
        seq = solve_3coloring(g)
        par = solve_3coloring(g, jobs=2)
        assert (seq is None) == (par is None)
        if par is not None:
            assert is_proper(g, par)


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


@st.composite
def pair_class_inputs(draw):
    # dense graphs and pair-heavy domains, so that classes form, collide
    # and strip often enough for the rare orderings to come up
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [e for e, k in zip(pairs, keep) if k])
    masks = st.sampled_from((0b011, 0b101, 0b110, 0b011, 0b101, 0b110, 1, 2, 4, 7))
    dom = draw(st.lists(masks, min_size=n, max_size=n))
    pending = draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
    return g, dom, pending


@given(pair_class_inputs())
@settings(max_examples=400, deadline=None)
def test_pair_classes_matches_full_scan_reference(case):
    g, dom, pending = case
    adj = [sorted(g.neighbor_sets[v]) for v in range(g.n)]
    masks = [sum(1 << w for w in adj[v]) for v in range(g.n)]
    dom_ref, pending_ref = dom[:], pending[:]
    got = _pair_classes(masks, dom, pending)
    want = pair_classes_reference(adj, dom_ref, pending_ref)
    assert got is want
    assert dom == dom_ref
    assert pending == pending_ref


def test_solver_counts_are_pinned_on_seed_and_triple(seed_gadget, triple_gadget):
    # a change that moves these counts or witnesses must say so
    for gadget, stats, witness in (
        (seed_gadget, SolveStats(nodes=9, propagations=907), "011201202021102"),
        (
            triple_gadget,
            SolveStats(nodes=16, propagations=6414),
            "011102120202011102021202101012020121210021",
        ),
    ):
        g = gadget.graph
        got, got_stats = solve_3coloring_with_stats(g)
        assert got_stats == stats
        assert "".join(str(got[v]) for v in range(g.n)) == witness


def test_solver_counts_are_pinned_on_final_graph(final_graph):
    result, stats = solve_3coloring_with_stats(final_graph)
    assert result is None
    assert stats == SolveStats(nodes=118, propagations=482854)
    split = revalidate_unsat(final_graph)
    assert [b["nodes"] for b in split["branches"]] == [39, 39, 39]


def test_report_refutes_the_final_graph_in_one_split(monkeypatch, final_graph):
    # the verdict comes from the three pinned branches alone: no unpinned
    # solve ahead of them, no second split after them
    calls = []
    solve = coloring.solve_3coloring_with_stats

    def counted(g, fixed=None, jobs=1):
        calls.append(dict(fixed or {}))
        return solve(g, fixed, jobs=jobs)

    monkeypatch.setattr(coloring, "solve_3coloring_with_stats", counted)
    check = cli.counterexample_report(final_graph).check("not-3-colorable")
    assert check.passed
    assert calls == [{0: 0}, {0: 1}, {0: 2}]
    split = check.details["split"]
    assert split["root"] == 0
    assert [b["nodes"] for b in split["branches"]] == [39, 39, 39]
    assert all(b["verdict"] == "unsat" for b in split["branches"])
    assert check.details["solver_nodes"] == 117


@given(graphs(7))
@settings(max_examples=150, deadline=None)
def test_split_replays_the_unpinned_solve(g):
    # with nothing fixed the solver branches first on vertex 0 under
    # color-symmetric rules, so the split returns the very same witness
    assert split_3coloring(g)[0] == solve_3coloring(g)


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_branching_does_not_recurse():
    # a path branches once per vertex; the search must not spend a Python
    # frame on each decision
    n = 120
    path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        got, stats = solve_3coloring_with_stats(path)
    finally:
        sys.setrecursionlimit(limit)
    assert stats.nodes > n
    assert got is not None and is_proper(path, got)


def _all_zero(g, fixed=None, jobs=1):
    return {v: 0 for v in range(g.n)}


def _all_zero_with_stats(g, fixed=None, jobs=1):
    return _all_zero(g), SolveStats()


@pytest.mark.parametrize(
    "module, name, fake, run",
    [
        (
            coloring,
            "solve_3coloring_with_stats",
            _all_zero_with_stats,
            lambda: cli.counterexample_report(C5),
        ),
        (
            gadgets,
            "solve_3coloring_with_stats",
            _all_zero_with_stats,
            lambda: gadgets.verify_contract(
                _bare_gadget(C5, (0, 1, 2), frozenset({"012"}))
            ),
        ),
        (
            coloring,
            "solve_3coloring",
            _all_zero,
            lambda: terminal_behavior(_bare_gadget(C5, (0, 2))),
        ),
    ],
    ids=["counterexample-report", "verify-contract", "terminal-behavior"],
)
def test_improper_solver_witness_is_an_oracle_mismatch(
    monkeypatch, module, name, fake, run
):
    # these checks raise rather than assert, so python -O keeps them
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(OracleMismatchError):
        run()


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


def test_all_patterns_arity_three():
    assert all_patterns(3) == ["000", "001", "010", "011", "012"]


def test_pattern_representative_round_trips():
    for t in (2, 3, 4):
        for p in all_patterns(t):
            assert pattern_of(pattern_representative(p)) == p


@given(graphs(6), st.integers(min_value=0, max_value=2**31 - 1))
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
    behavior = terminal_behavior(_bare_gadget(tri, (0, 1, 2)))
    assert dict(behavior.entries) == {
        "000": False,
        "001": False,
        "010": False,
        "011": False,
        "012": True,
    }


def test_edgeless_gadget_is_not_forced_unequal():
    g = build_graph(3, [])
    assert not forced_unequal(_bare_gadget(g, (0, 1, 2)))


def test_seed_gadget_behavior_table(seed_gadget):
    behavior = terminal_behavior(seed_gadget)
    table = dict(behavior.entries)
    assert table["000"] is False
    assert all(table[p] for p in ("001", "010", "011", "012"))
    assert forced_unequal(seed_gadget)


# ---------------------------------------------------------------------------
# UNSAT revalidation

def test_revalidate_unsat_on_k4():
    split = revalidate_unsat(K4)
    assert split["root"] == 0
    assert [b["color"] for b in split["branches"]] == [0, 1, 2]
    assert all(b["verdict"] == "unsat" for b in split["branches"])


def test_revalidate_unsat_conflict_branches():
    # every color for the one free vertex collides with a fixed neighbor
    fixing = {1: 0, 2: 1, 3: 2}
    split = revalidate_unsat(K4, fixing)
    assert all(b["verdict"] == "conflict" for b in split["branches"])


def test_split_3coloring_stops_at_the_first_satisfiable_branch():
    # vertex 0 of a triangle pinned to 0 already colors; the transcript
    # holds that one branch
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    got, split = split_3coloring(tri)
    assert got == {0: 0, 1: 1, 2: 2}
    assert split["root"] == 0
    assert [(b["color"], b["verdict"]) for b in split["branches"]] == [(0, "sat")]
    # a total fixing needs no split: it is the coloring
    assert split_3coloring(tri, {0: 2, 1: 0, 2: 1}) == (
        {0: 2, 1: 0, 2: 1},
        {"root": None, "branches": []},
    )
    assert split_3coloring(K4) == (
        None,
        {
            "root": 0,
            "branches": [
                {"color": c, "verdict": "unsat", "nodes": 0} for c in (0, 1, 2)
            ],
        },
    )


def test_revalidate_unsat_rejects_satisfiable_input():
    with pytest.raises(OracleMismatchError):
        revalidate_unsat(C5)
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(OracleMismatchError):
        revalidate_unsat(tri, {0: 0, 1: 1, 2: 2})
