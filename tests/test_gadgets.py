import copy
import dataclasses
import gc
import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinberg import (
    COUNTEREXAMPLE_RECIPE,
    TRIPLE_RECIPE,
    ContractError,
    FormatError,
    InterfaceContract,
    PasteError,
    PasteRecipe,
    TerminalGadget,
    build_counterexample,
    build_graph,
    build_triple_gadget,
    canonical_digest,
    compositional_check,
    counterexample_report,
    distance,
    first_failing_clause,
    forbidden_cycle_check,
    load_gadget,
    paste,
    save_gadget,
    seed_contract,
    terminal_behavior,
    terminals_cofacial,
    triple_contract,
    verify_contract,
)
from steinberg.analysis import is_planar
from steinberg.check import case_tree_refutes, skeleton_facts
from steinberg.coloring import (
    all_patterns,
    is_proper,
    pattern_of,
    solve_3coloring,
    solve_3coloring_with_stats,
)
from steinberg.gadgets import (
    _planarity_check,
    _recipe_facts,
    claw_skeleton,
    gadget_from_json_dict,
    gadget_to_json_dict,
    lemmas_report,
    seed_in_roles,
    walk_recipe,
)

from support import cheapest_failing_check, replace_at, rup_refutes, triangulated_grid


TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = build_graph(3, [(0, 1), (1, 2)])


def edge_gadget():
    return TerminalGadget(build_graph(2, [(0, 1)]), (0, 1), InterfaceContract())


# ---------------------------------------------------------------------------
# contracts

def test_contract_rejects_bad_cycle_lengths():
    with pytest.raises(ValueError):
        InterfaceContract(forbidden_cycle_lengths=frozenset({2}))
    with pytest.raises(ValueError):
        InterfaceContract(forbidden_cycle_lengths=frozenset({7}))


def test_contract_rejects_bad_matrices():
    with pytest.raises(ValueError, match="square"):
        InterfaceContract(min_terminal_distances=((0, 1), (1, 0), (0, 0)))
    with pytest.raises(ValueError, match="diagonal"):
        InterfaceContract(min_terminal_distances=((1, 1), (1, 0)))
    with pytest.raises(ValueError, match="symmetric"):
        InterfaceContract(min_terminal_distances=((0, 1), (2, 0)))
    with pytest.raises(ValueError, match="dominate"):
        InterfaceContract(
            min_terminal_distances=((0, 3), (3, 0)),
            exact_terminal_distances=((0, 2), (2, 0)),
        )


def test_contract_rejects_unnormalized_pattern():
    with pytest.raises(ValueError, match="not normalized"):
        InterfaceContract(forbidden_patterns=frozenset({"110"}))


@pytest.mark.parametrize("pattern", ["0a", "0123", "01 ", 0])
def test_contract_rejects_a_pattern_of_other_colors(pattern):
    with pytest.raises(ValueError, match="color other than 0, 1, 2"):
        InterfaceContract(forbidden_patterns=frozenset({pattern}))


@pytest.mark.parametrize("pattern", [0, True, "0a", "0123", "110"])
def test_gadget_json_refuses_a_bad_pattern(seed_gadget, pattern):
    # an input error with the contract's own message, not a bare ValueError
    d = json.loads(json.dumps(gadget_to_json_dict(seed_gadget)))
    with pytest.raises(FormatError, match="pattern"):
        gadget_from_json_dict(
            replace_at(d, ("contract", "forbidden_patterns", 0), pattern)
        )


def test_contract_rejects_arity_disagreement():
    with pytest.raises(ValueError, match="arity"):
        InterfaceContract(
            exact_terminal_distances=((0, 1), (1, 0)),
            forbidden_patterns=frozenset({"000"}),
        )


def test_contract_arity_and_json_round_trip():
    for contract in (seed_contract(), triple_contract(), InterfaceContract()):
        back = InterfaceContract.from_json_dict(contract.to_json_dict())
        assert back == contract
    assert seed_contract().arity == 3
    assert InterfaceContract().arity is None


@pytest.mark.parametrize("path, value", [
    pytest.param(("terminals", 0), 0.0, id="terminal-float"),
    pytest.param(("terminals", 0), True, id="terminal-bool"),
    pytest.param(("contract", "forbidden_cycle_lengths", 0), 4.9, id="cycle-length"),
    pytest.param(("contract", "exact_terminal_distances", 0, 1), 3.5, id="distance"),
])
def test_gadget_json_refuses_non_integers(seed_gadget, path, value):
    # a float or a bool is an input error, never truncated to an integer
    d = json.loads(json.dumps(gadget_to_json_dict(seed_gadget)))
    assert gadget_from_json_dict(d) == seed_gadget
    with pytest.raises(FormatError, match="must be an integer"):
        gadget_from_json_dict(replace_at(d, path, value))


@pytest.mark.parametrize("key", ["require_planar"])
@pytest.mark.parametrize("value", ["false", 0])
def test_gadget_json_refuses_non_boolean_flags(seed_gadget, key, value):
    # a flag that is not JSON true/false is an input error, never truthy
    d = json.loads(json.dumps(gadget_to_json_dict(seed_gadget)))
    with pytest.raises(FormatError, match=f"{key} must be true or false"):
        gadget_from_json_dict(replace_at(d, ("contract", key), value))


def test_seed_and_triple_contract_shapes():
    sc = seed_contract()
    assert sc.forbidden_cycle_lengths == frozenset({4, 5})
    assert sc.exact_terminal_distances == ((0, 3, 3), (3, 0, 4), (3, 4, 0))
    assert sc.forbidden_patterns == frozenset({"000"})
    assert sc.require_planar
    tc = triple_contract()
    assert tc.exact_terminal_distances == ((0, 4, 4), (4, 0, 4), (4, 4, 0))


def test_gadget_validation():
    with pytest.raises(ValueError, match="distinct"):
        TerminalGadget(TRIANGLE, (0, 0), InterfaceContract())
    with pytest.raises(ValueError, match="outside"):
        TerminalGadget(TRIANGLE, (0, 5), InterfaceContract())
    with pytest.raises(ValueError, match="arity"):
        TerminalGadget(TRIANGLE, (0, 1), seed_contract())


# ---------------------------------------------------------------------------
# verify_contract

def test_verify_contract_passes_on_seed(seed_gadget):
    report = verify_contract(seed_gadget)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "forbidden-cycles" in names
    assert "distance-t0-t1" in names
    assert "pattern-000-infeasible" in names
    assert "planarity" in names


def test_verify_contract_reports_cycle_violation(seed_gadget):
    g = seed_gadget.graph
    # join two vertices at distance 3 to close a 4-cycle
    u, v = 0, seed_gadget.terminals[1]
    spoiled = TerminalGadget(
        build_graph(g.n, (*g.edges, (u, v)), dict(g.labels)),
        seed_gadget.terminals,
        seed_contract(),
    )
    report = verify_contract(spoiled)
    assert not report.passed
    cycles = report.check("forbidden-cycles")
    distances = report.check("distance-t0-t1")
    assert not (cycles.passed and distances.passed)
    # distances are tried first; without them the cycle clause fails first
    no_distances = dataclasses.replace(
        spoiled,
        contract=dataclasses.replace(seed_contract(), exact_terminal_distances=None),
    )
    assert (
        first_failing_clause(spoiled),
        first_failing_clause(no_distances),
    ) == ("distance-t0-t1", "forbidden-cycles")


def test_verify_contract_distance_violation():
    gadget = TerminalGadget(
        PATH3,
        (0, 2),
        InterfaceContract(exact_terminal_distances=((0, 3), (3, 0))),
    )
    report = verify_contract(gadget)
    assert not report.passed
    assert not report.check("distance-t0-t1").passed
    assert first_failing_clause(gadget) == "distance-t0-t1"


def test_verify_contract_pattern_clause():
    # a triangle's terminals can never be all equal, and the all-distinct
    # pattern is realizable, so forbidding 012 must fail with a witness
    ok = TerminalGadget(
        TRIANGLE,
        (0, 1, 2),
        InterfaceContract(forbidden_patterns=frozenset({"000"})),
    )
    assert verify_contract(ok).passed

    bad = TerminalGadget(
        TRIANGLE,
        (0, 1, 2),
        InterfaceContract(forbidden_patterns=frozenset({"012"})),
    )
    report = verify_contract(bad)
    assert not report.passed
    witness = report.check("pattern-012-infeasible").witness
    assert witness is not None and "coloring" in witness
    assert (first_failing_clause(ok), first_failing_clause(bad)) == (
        None,
        "pattern-012-infeasible",
    )


def test_pattern_clause_says_which_cross_check_ran(seed_gadget, triple_gadget):
    # at any size the solver's refutation is replayed as a RUP proof, and
    # the details give its size
    for gadget, nodes, conflicts, clauses, literals in (
        (seed_gadget, 2, 3, 2, 4),
        (triple_gadget, 45, 12, 11, 26),
    ):
        check = verify_contract(gadget).check("pattern-000-infeasible")
        assert check.passed
        assert check.details == {
            "solver_nodes": nodes,
            "conflicts": conflicts,
            "proof_clauses": clauses,
            "proof_literals": literals,
            "proof": "rup-checked",
        }


def test_verify_contract_nonplanar():
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    gadget = TerminalGadget(k5, (0, 1), InterfaceContract())
    report = verify_contract(gadget)
    assert not report.passed
    assert report.check("planarity").witness["kind"] == "K5"
    assert first_failing_clause(gadget) == "planarity"


@st.composite
def small_gadgets(draw):
    """A graph on up to 7 vertices with 2 or 3 terminals and a random
    contract: cycle bans, exact or minimum distances (exact never below
    minimum), forbidden patterns and the planarity flag."""
    n = draw(st.integers(min_value=3, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    t = draw(st.sampled_from([2, 3]))
    terminals = tuple(draw(st.permutations(range(n)))[:t])

    def matrix(lo):
        mat = [[0] * t for _ in range(t)]
        for i, j in itertools.combinations(range(t), 2):
            mat[i][j] = mat[j][i] = draw(st.integers(lo[i][j], lo[i][j] + 4))
        return tuple(map(tuple, mat))

    zero = ((0,) * t,) * t
    minimum = matrix(zero) if draw(st.booleans()) else None
    exact = matrix(minimum or zero) if draw(st.booleans()) else None
    contract = InterfaceContract(
        forbidden_cycle_lengths=frozenset(
            draw(st.sets(st.sampled_from([3, 4, 5, 6])))
        ),
        min_terminal_distances=minimum,
        exact_terminal_distances=exact,
        forbidden_patterns=frozenset(
            draw(st.sets(st.sampled_from(all_patterns(t))))
        ),
        require_planar=draw(st.booleans()),
    )
    return TerminalGadget(build_graph(n, edges), terminals, contract)


@given(small_gadgets())
@settings(max_examples=200, deadline=None)
def test_first_failing_clause_agrees_with_the_full_verifier(gadget):
    report = verify_contract(gadget)
    failed = first_failing_clause(gadget)
    assert (failed is None) == report.passed
    assert failed == cheapest_failing_check(report)


def test_terminals_cofacial(seed_gadget):
    assert terminals_cofacial(seed_gadget)
    # antipodal octahedron vertices never share a face
    octa = build_graph(
        6,
        [
            (0, 1), (0, 2), (0, 3), (0, 4),
            (5, 1), (5, 2), (5, 3), (5, 4),
            (1, 2), (2, 3), (3, 4), (4, 1),
        ],
    )
    gadget = TerminalGadget(octa, (0, 5, 1), InterfaceContract())
    assert not terminals_cofacial(gadget)


# ---------------------------------------------------------------------------
# the counterexample battery

def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


SHORT_CYCLE_CHECKS = (
    "no-4-or-5-cycles",
    "no-adjacent-triangles",
    "no-triangle-sharing-edge-with-3-or-5-cycle",
)
K_PAIR = (
    {"type": "cycle", "vertices": [0, 1, 2, 3]},
    {"edge": [0, 1], "triangles": [[0, 1, 2], [0, 1, 3]]},
    {"triangle": [0, 1, 2], "cycle": [0, 1, 3], "shared_edge": [0, 1]},
)
# the witnesses each check reported when it enumerated its own cycle
# lengths, before the three shared one census; None marks a pass
SHORT_CYCLE_WITNESSES = {
    "K4": (lambda: complete_graph(4), K_PAIR),
    "K5": (lambda: complete_graph(5), K_PAIR),
    "house": (
        lambda: build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
        (
            {"type": "cycle", "vertices": [0, 2, 3, 4]},
            None,
            {"triangle": [0, 1, 2], "cycle": [0, 1, 2, 3, 4], "shared_edge": [0, 1]},
        ),
    ),
    "book": (
        lambda: build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
        ({"type": "cycle", "vertices": [0, 2, 1, 3]}, *K_PAIR[1:]),
    ),
    "triangulated-grid-30": (
        lambda: triangulated_grid(30),
        (
            {"type": "cycle", "vertices": [0, 1, 31, 30]},
            {"edge": [0, 31], "triangles": [[0, 1, 31], [0, 30, 31]]},
            {"triangle": [0, 1, 31], "cycle": [0, 30, 31], "shared_edge": [0, 31]},
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SHORT_CYCLE_WITNESSES))
def test_short_cycle_witnesses_are_pinned(name):
    build, witnesses = SHORT_CYCLE_WITNESSES[name]
    report = counterexample_report(build())
    for check, witness in zip(SHORT_CYCLE_CHECKS, witnesses):
        result = report.check(check)
        assert result.passed == (witness is None), check
        assert result.witness == witness, check


# ---------------------------------------------------------------------------
# paste

def test_paste_two_edges_share_a_slot():
    recipe = PasteRecipe(num_slots=3, parts=((0, 1), (1, 2)))
    g = paste(recipe, [edge_gadget()] * 2)
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_paste_numbering_is_slots_fresh_then_interiors():
    tri_gadget = TerminalGadget(TRIANGLE, (0,), InterfaceContract())
    recipe = PasteRecipe(
        num_slots=1,
        parts=((0,),),
        extra_vertices=2,
        extra_edges=((0, 1), (1, 2)),
        labels=((0, "hub"),),
    )
    g = paste(recipe, [tri_gadget])
    assert g.n == 1 + 2 + 2
    # the fresh vertices 1, 2 carry the extra edges; the triangle's
    # terminal lands on slot 0 and its interior on 3, 4
    assert g.edges == ((0, 1), (0, 3), (0, 4), (1, 2), (3, 4))
    assert dict(g.labels) == {0: "hub"}


def test_paste_maps_preserve_part_edges(seed_gadget):
    # rebuild each part's vertex map by the numbering paste promises:
    # terminals on their slots, interiors after the slots and fresh
    # vertices in part order
    recipe = TRIPLE_RECIPE
    roles = seed_in_roles(seed_gadget)
    next_vertex = recipe.num_slots + recipe.extra_vertices
    want = set(recipe.extra_edges)
    for slots in recipe.parts:
        gmap = dict(zip(roles.terminals, slots))
        for v in range(roles.graph.n):
            if v not in gmap:
                gmap[v] = next_vertex
                next_vertex += 1
        want |= {tuple(sorted((gmap[u], gmap[v]))) for u, v in roles.graph.edges}
    g = paste(recipe, [roles] * 3)
    assert g.n == next_vertex
    assert set(g.edges) == want
    assert g.m == 3 * seed_gadget.graph.m + 3


# a recipe's shape is checked when it is made, so paste and walk_recipe
# both refuse a malformed one before either reads it

def test_paste_rejects_duplicate_slot_within_part():
    with pytest.raises(PasteError, match="identify two"):
        PasteRecipe(num_slots=2, parts=((0, 0),))


def test_paste_rejects_slot_arity_mismatch():
    with pytest.raises(PasteError, match="assigns"):
        paste(PasteRecipe(num_slots=1, parts=((0,),)), [edge_gadget()])
    with pytest.raises(PasteError, match="1 gadgets for 2 parts"):
        paste(PasteRecipe(num_slots=3, parts=((0, 1), (1, 2))), [edge_gadget()])


def test_paste_rejects_unknown_and_dangling_slots():
    with pytest.raises(PasteError, match="unknown slot"):
        PasteRecipe(num_slots=1, parts=((0, 3),))
    with pytest.raises(PasteError, match="dangling slot 2"):
        PasteRecipe(num_slots=3, parts=((0, 1),))


def test_paste_rejects_edge_collisions():
    # two parts landing the same edge
    with pytest.raises(PasteError, match="collision"):
        paste(PasteRecipe(num_slots=2, parts=((0, 1), (1, 0))), [edge_gadget()] * 2)
    # an extra edge colliding with a part edge
    with pytest.raises(PasteError, match="collision"):
        paste(
            PasteRecipe(num_slots=2, parts=((0, 1),), extra_edges=((0, 1),)),
            [edge_gadget()],
        )


def test_paste_rejects_bad_extra_edges():
    with pytest.raises(PasteError, match="outside the union"):
        PasteRecipe(num_slots=2, parts=((0, 1),), extra_edges=((0, 5),))
    with pytest.raises(PasteError, match="loop"):
        PasteRecipe(num_slots=2, parts=((0, 1),), extra_edges=((0, 0),))


# ---------------------------------------------------------------------------
# the two stock compositions

def test_triple_recipe_orients_the_seed(seed_gadget):
    recipe = TRIPLE_RECIPE
    assert recipe.num_slots == 6
    assert len(recipe.parts) == 3
    assert recipe.extra_edges == ((3, 4), (4, 5), (3, 5))
    # each part bridges one terminal pair with its distance-4 pair (b, c)
    seen_pairs = set()
    for slots in recipe.parts:
        b_slot = slots[1]
        c_slot = slots[2]
        seen_pairs.add(frozenset({b_slot, c_slot}))
        assert slots[0] in (3, 4, 5)
    assert seen_pairs == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}
    # each part is the seed in (a, b, c) role order, so (b, c) is its
    # distance-4 pair
    roles = seed_in_roles(seed_gadget)
    a, b, c = roles.terminals
    g = roles.graph
    assert (distance(g, a, b), distance(g, a, c), distance(g, b, c)) == (3, 3, 4)


def test_seed_in_roles_ignores_the_seeds_terminal_order(seed_gadget, triple_gadget):
    # b and c are told apart by vertex id, so all six orders of the
    # seed's terminals give one oriented seed and paste the very same
    # triple, not a mirror image; the packaged seed is in role order
    roles = seed_in_roles(seed_gadget)
    assert roles.terminals == seed_gadget.terminals
    for order in itertools.permutations(seed_gadget.terminals):
        turned = TerminalGadget(seed_gadget.graph, order, InterfaceContract())
        assert seed_in_roles(turned) == roles
        assert build_triple_gadget(turned) == triple_gadget


def test_build_triple_gadget_arithmetic(seed_gadget, triple_gadget):
    n1, m1 = seed_gadget.graph.n, seed_gadget.graph.m
    assert triple_gadget.graph.n == 3 * n1 - 3
    assert triple_gadget.graph.m == 3 * m1 + 3
    assert triple_gadget.terminals == (0, 1, 2)
    assert triple_gadget.graph.vertex_by_label("d") == 3


def test_build_triple_gadget_rejects_a_broken_seed(seed_gadget):
    broken = TerminalGadget(
        PATH3, (0, 1, 2), InterfaceContract(forbidden_patterns=frozenset({"000"}))
    )
    with pytest.raises(ContractError):
        build_triple_gadget(broken)


def test_counterexample_arithmetic(triple_gadget, final_graph):
    n2, m2 = triple_gadget.graph.n, triple_gadget.graph.m
    # four copies keep their interiors, seven slots are shared, and the
    # three fresh vertices b, e, e' are added on top
    assert final_graph.n == 4 * (n2 - 3) + 7 + 3
    assert final_graph.m == 4 * m2 + 12
    assert final_graph.n == 166 and final_graph.m == 300


def test_counterexample_names_and_extra_triangles(final_graph):
    at = final_graph.vertex_by_label
    for x, y, z in (("d", "e", "f"), ("d'", "e'", "f'"), ("b", "c", "c'")):
        assert final_graph.has_edge(at(x), at(y))
        assert final_graph.has_edge(at(y), at(z))
        assert final_graph.has_edge(at(x), at(z))
    for name in ("b", "e", "e'"):
        assert final_graph.has_edge(at("a"), at(name))


def test_counterexample_renumbering_preserves_the_graph(triple_gadget, final_graph):
    raw = paste(COUNTEREXAMPLE_RECIPE, [triple_gadget] * 4)
    assert canonical_digest(raw) == canonical_digest(final_graph)


def test_counterexample_has_no_short_cycles(final_graph):
    assert forbidden_cycle_check(final_graph, {4, 5}) is None


def test_build_counterexample_rejects_a_broken_triple(triple_gadget):
    broken = TerminalGadget(
        triple_gadget.graph, (0, 1, 3), triple_contract()
    )
    with pytest.raises(ContractError):
        build_counterexample(broken)


# ---------------------------------------------------------------------------
# compositional argument

def test_compositional_check_closes_every_branch(seed_gadget):
    behavior = terminal_behavior(seed_gadget, frozenset())
    result = compositional_check(behavior)
    assert result["ok"]
    assert result["counterexample"] is None
    assert list(result["triple_stage"]["table"].items()) == [
        ("000", False),
        ("001", True),
        ("010", True),
        ("011", True),
        ("012", True),
    ]
    # no stage-one coloring leaves the composite's terminals all equal,
    # and no stage-two branch survives at all
    assert "000" not in result["triple_stage"]["witnesses"]
    assert result["final_stage"]["witnesses"] == {}
    assert result["final_stage"]["table"] == {"": False}
    # a json-serializable summary
    json.dumps(result)

    # each vertex takes a color already used on its path or the next
    # unused one, so no two branches differ by a color permutation
    def shape(node, used):  # (leaves, branch nodes) under node
        if "cases" not in node:
            return 1, 0
        assert list(node["cases"]) == [str(c) for c in range(min(used, 2) + 1)]
        leaves, branches = 0, 1
        for c, sub in node["cases"].items():
            if isinstance(sub, str):  # a closing reason
                leaves += 1
            else:
                sub_leaves, sub_branches = shape(sub, max(used, int(c) + 1))
                leaves += sub_leaves
                branches += sub_branches
        return leaves, branches

    assert shape(result["triple_stage"]["tree"], 0) == (45, 24)
    assert shape(result["final_stage"]["tree"], 0) == (78, 40)


def test_compositional_check_leaves_no_cyclic_garbage(seed_gadget):
    # reference counting alone frees what both walks make, so a run of
    # lemmas ops leaves nothing for the collector
    behavior = terminal_behavior(seed_gadget, frozenset())
    gc.collect()
    gc.disable()
    try:
        compositional_check(behavior)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_composed_triple_table_matches_the_solver(seed_gadget, triple_gadget):
    seed_table = terminal_behavior(seed_gadget, frozenset())
    result = compositional_check(seed_table)
    triple_table = terminal_behavior(triple_gadget, frozenset())
    assert result["triple_stage"]["table"] == triple_table


def test_compositional_check_catches_a_lying_behavior_table(seed_gadget):
    # if the all-equal pattern were feasible the argument must not close
    lying = dict.fromkeys(all_patterns(3), True)
    result = compositional_check(lying)
    assert not result["ok"]
    assert result["counterexample"] is not None


def test_compositional_check_rejects_wrong_arity():
    two = {"00": False, "01": True}
    with pytest.raises(ValueError, match="lists pattern '00'"):
        compositional_check(two)


def test_compositional_check_rejects_a_table_that_lacks_a_pattern():
    with pytest.raises(ValueError, match="lacks pattern '010'"):
        compositional_check({"000": False, "001": True})


@pytest.mark.parametrize(
    "terminals",
    [(0, 1, 9), (0, 1, -1), (0, 0, 1)],
    ids=["past-the-last-vertex", "negative", "repeated"],
)
def test_walk_refuses_terminals_that_are_not_distinct_vertices(
    seed_gadget, terminals
):
    seed_table = terminal_behavior(seed_gadget, frozenset())
    with pytest.raises(ValueError, match=r"not distinct vertices of 0\.\.5"):
        walk_recipe(TRIPLE_RECIPE, [seed_table] * 3, terminals)


@pytest.mark.parametrize("feasible", [False, True])
def test_walk_reads_a_part_without_terminals_by_its_empty_pattern(feasible):
    recipe = PasteRecipe(num_slots=1, parts=((0,), ()))
    tables = [{"0": True}, {"": feasible}]
    walk = walk_recipe(recipe, tables, (0,))
    assert walk["table"] == {"0": feasible}
    parts = list(zip(recipe.parts, tables))
    assert case_tree_refutes(["0"], (), parts, (0,), walk["tree"], walk["table"])


def test_lemmas_report_ignores_the_seeds_terminal_order(seed_gadget):
    # the seed is oriented once and every check reads it in role order,
    # so all six orders of its terminals give the packaged order's report
    def stripped(seed) -> bytes:
        lines = lemmas_report(seed).to_json_bytes().splitlines(keepends=True)
        return b"".join(line for line in lines if b'"duration_s": ' not in line)

    want = stripped(seed_gadget)
    for order in itertools.permutations(seed_gadget.terminals):
        turned = dataclasses.replace(seed_gadget, terminals=order)
        assert stripped(turned) == want, order


def test_walk_finds_a_survivor_once_an_extra_edge_is_gone(
    seed_gadget, triple_gadget
):
    seed_table = terminal_behavior(seed_gadget, frozenset())
    result = compositional_check(seed_table)
    triple_table = result["triple_stage"]["table"]
    recipe = COUNTEREXAMPLE_RECIPE
    for edge in recipe.extra_edges:
        cut = dataclasses.replace(
            recipe, extra_edges=tuple(e for e in recipe.extra_edges if e != edge)
        )
        walk = walk_recipe(cut, [triple_table] * 4, ())
        assert walk["table"][""], edge
    # the last cut's surviving slot coloring really extends to the graph
    survivor = walk["witnesses"][""]
    pasted = paste(cut, [triple_gadget] * 4)
    fixing = {pasted.vertex_by_label(name): c for name, c in survivor.items()}
    coloring = solve_3coloring(pasted, fixing)
    assert coloring is not None and is_proper(pasted, coloring)


@st.composite
def small_recipes(draw):
    """2-3 random gadgets of at most 7 vertices and arity 2-3, pasted on
    random slots with up to 2 fresh vertices and random extra edges,
    plus 2-3 terminal slots in a random order: the recipe, its gadgets
    and the terminals."""
    parts = []
    gadgets = []
    slot_pool = draw(st.integers(min_value=3, max_value=6))
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        arity = draw(st.integers(min_value=2, max_value=3))
        n = draw(st.integers(min_value=arity, max_value=7))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
        terminals = tuple(draw(st.permutations(range(n)))[:arity])
        slots = tuple(draw(st.permutations(range(slot_pool)))[:arity])
        gadgets.append(
            TerminalGadget(build_graph(n, edges), terminals, InterfaceContract())
        )
        parts.append(slots)
    used = sorted({s for slots in parts for s in slots})
    renumber = {s: i for i, s in enumerate(used)}
    parts = [tuple(renumber[s] for s in slots) for slots in parts]
    num_slots = len(used)
    fresh = draw(st.integers(min_value=0, max_value=2))
    part_edges = set()  # part edges that land on two slots
    for slots, gadget in zip(parts, gadgets):
        slot_of = dict(zip(gadget.terminals, slots))
        part_edges |= {
            frozenset((slot_of[u], slot_of[v]))
            for u, v in gadget.graph.edges
            if u in slot_of and v in slot_of
        }
    free_pairs = [
        e
        for e in itertools.combinations(range(num_slots + fresh), 2)
        if frozenset(e) not in part_edges
    ]
    extra_edges = tuple(
        draw(st.lists(st.sampled_from(free_pairs), unique=True, max_size=6))
        if free_pairs
        else ()
    )
    arity = draw(st.integers(min_value=2, max_value=min(3, num_slots)))
    terminals = tuple(draw(st.permutations(range(num_slots)))[:arity])
    recipe = PasteRecipe(
        num_slots=num_slots,
        parts=tuple(parts),
        extra_vertices=fresh,
        extra_edges=extra_edges,
    )
    return recipe, gadgets, terminals


@given(small_recipes())
@settings(max_examples=80, deadline=None)
def test_walk_matches_the_solver_on_the_pasted_graph(case):
    recipe, gadgets, terminals = case
    try:
        pasted = paste(recipe, gadgets)
    except PasteError:
        assume(False)  # two parts put an edge on one slot pair
    tables = [terminal_behavior(gadget, frozenset()) for gadget in gadgets]
    walk = walk_recipe(recipe, tables, terminals)
    want = terminal_behavior(
        TerminalGadget(pasted, terminals, InterfaceContract()), frozenset()
    )
    assert walk["table"] == want
    for pattern, coloring in walk["witnesses"].items():
        assert pattern_of([coloring[str(t)] for t in terminals]) == pattern
    parts = list(zip(recipe.parts, tables))
    assert case_tree_refutes(
        recipe.names, recipe.extra_edges, parts, terminals, walk["tree"],
        walk["table"],
    )


# ---------------------------------------------------------------------------
# the derived lemmas: the case-tree checker, the skeleton and the claws

def _stock_walks(seed_gadget):
    """Each stock recipe with the checker's arguments for its walk."""
    seed_table = terminal_behavior(seed_in_roles(seed_gadget), frozenset())
    result = compositional_check(seed_table)
    triple_table = result["triple_stage"]["table"]
    return [
        (TRIPLE_RECIPE, seed_table, (0, 1, 2), result["triple_stage"]),
        (COUNTEREXAMPLE_RECIPE, triple_table, (), result["final_stage"]),
    ]


def _tree_accepted(recipe, table, terminals, tree, derived, names=None):
    parts = [(slots, table) for slots in recipe.parts]
    return case_tree_refutes(
        names or recipe.names, recipe.extra_edges, parts, terminals, tree,
        derived,
    )


def _branches(node, path=()):
    """(path, node) for every branch node, a path being its case keys."""
    if isinstance(node, dict) and "cases" in node:
        yield path, node
        for c, sub in node["cases"].items():
            yield from _branches(sub, path + (c,))


def _leaves(node, path=()):
    """(path, leaf) for every closed case and survivor under ``node``."""
    if isinstance(node, str) or "survivor" in node:
        yield path, node
    else:
        for c, sub in node["cases"].items():
            yield from _leaves(sub, path + (c,))


def _at(tree, path):
    for c in path:
        tree = tree["cases"][c]
    return tree


def test_the_checker_accepts_both_stock_case_trees(seed_gadget):
    for recipe, table, terminals, stage in _stock_walks(seed_gadget):
        assert _tree_accepted(recipe, table, terminals, stage["tree"], stage["table"])


def test_the_checker_refuses_each_mutant_case_tree(seed_gadget):
    for recipe, table, terminals, stage in _stock_walks(seed_gadget):
        tree, derived = stage["tree"], stage["table"]

        def refused(mutant_tree=tree, mutant_table=derived, names=None):
            return not _tree_accepted(
                recipe, table, terminals, mutant_tree, mutant_table, names
            )

        # one case dropped, at every branch in turn
        for path, _ in _branches(tree):
            mutant = copy.deepcopy(tree)
            cases = _at(mutant, path)["cases"]
            cases.pop(max(cases))
            assert refused(mutant), path
        # a closed leaf moved onto a case where nothing is violated
        reason = next(leaf for _, leaf in _leaves(tree) if isinstance(leaf, str))
        for path, _ in _branches(tree):
            for c, sub in _at(tree, path)["cases"].items():
                if not isinstance(sub, str):
                    mutant = copy.deepcopy(tree)
                    _at(mutant, path)["cases"][c] = reason
                    assert refused(mutant), path + (c,)
        # each derived row flipped, and a row too many
        for pattern in derived:
            assert refused(mutant_table={**derived, pattern: not derived[pattern]})
        assert refused(mutant_table={**derived, "0120": False})
        # a name given twice, a tree that is a bare reason, a list for a case
        assert refused(names=[recipe.names[0]] * len(recipe.names))
        assert refused("closed")
        mutant = copy.deepcopy(tree)
        mutant["cases"]["0"] = [mutant["cases"]["0"]]
        assert refused(mutant)
        # two vertex names swapped: the root's and its first branch child's
        names = recipe.names
        first = tree["vertex"]
        second = next(node["vertex"] for path, node in _branches(tree) if path)
        i, j = names.index(first), names.index(second)
        names[i], names[j] = names[j], names[i]
        assert refused(names=names), (first, second)
    # a survivor's pattern changed (only the triple stage has survivors)
    recipe, table, terminals, stage = _stock_walks(seed_gadget)[0]
    for path, leaf in _leaves(stage["tree"]):
        if isinstance(leaf, dict):
            mutant = copy.deepcopy(stage["tree"])
            node = _at(mutant, path)
            node["survivor"] = "000" if leaf["survivor"] != "000" else "012"
            assert not _tree_accepted(
                recipe, table, terminals, mutant, stage["table"]
            ), path


def test_the_checker_refuses_a_vertex_colored_twice_on_a_path():
    args = (["x"], (), [((0,), {"0": True})], (0,))
    once = {"vertex": "x", "cases": {"0": {"survivor": "0"}}}
    again = {"vertex": "x", "cases": {"0": {"survivor": "0"}, "1": {"survivor": "0"}}}
    twice = {"vertex": "x", "cases": {"0": again}}
    assert case_tree_refutes(*args, once, {"0": True})
    assert not case_tree_refutes(*args, twice, {"0": True})


def test_the_checker_refuses_a_survivor_that_leaves_a_vertex_uncolored():
    # y's own part takes no color, so x's only coloring does not extend
    args = (["x", "y"], ((0, 1),), [((0,), {"0": True}), ((1,), {"0": False})], (0,))
    closed = {"vertex": "y", "cases": {"0": "x-y", "1": "y infeasible"}}
    assert case_tree_refutes(
        *args, {"vertex": "x", "cases": {"0": closed}}, {"0": False}
    )
    early = {"vertex": "x", "cases": {"0": {"survivor": "0"}}}
    assert not case_tree_refutes(*args, early, {"0": True})


def test_the_checker_reads_four_terminals():
    # two edge gadgets side by side: 14 first-use patterns on 4 terminals
    edge = {"00": False, "01": True}
    recipe = PasteRecipe(num_slots=4, parts=((0, 1), (2, 3)))
    walk = walk_recipe(recipe, [edge, edge], (0, 1, 2, 3))
    assert len(walk["table"]) == 14 and sum(walk["table"].values()) == 6
    parts = [(slots, edge) for slots in recipe.parts]
    assert case_tree_refutes(
        recipe.names, (), parts, (0, 1, 2, 3), walk["tree"], walk["table"]
    )


def test_derived_triple_facts_agree_with_the_pasted_triple(
    seed_gadget, triple_gadget, final_graph
):
    # the evidence lemmas no longer gathers, kept as a cross-check: BFS,
    # the census, the left-right test and a checked solver refutation on
    # the pasted triple, the census and planarity on the final graph
    roles = seed_in_roles(seed_gadget)
    dist, (acyclic, _, details) = _recipe_facts(
        TRIPLE_RECIPE, roles.contract.exact_terminal_distances, (0, 1, 2),
        frozenset({4, 5}),
    )
    g = triple_gadget.graph
    t = triple_gadget.terminals
    for i, j in itertools.combinations(range(3), 2):
        assert dist[i][j] == distance(g, t[i], t[j]) == 4
    assert acyclic and forbidden_cycle_check(g, {4, 5}) is None
    assert details == {
        "derived": "skeleton", "part_cycles_at_least": 7, "extra_cycles": [3],
    }
    assert terminals_cofacial(roles)
    claw = claw_skeleton(TRIPLE_RECIPE, (0, 1, 2))
    assert (claw.n, claw.m) == (10, 15)
    assert _planarity_check(claw)[0] and is_planar(g).planar
    assert terminals_cofacial(triple_gadget)
    fixing = {v: 0 for v in t}
    result, stats = solve_3coloring_with_stats(g, fixing)
    assert result is None and rup_refutes(g, fixing, stats.proof)
    stage = _stock_walks(seed_gadget)[0][3]
    assert stage["table"]["000"] is False
    # the final recipe, from the triple's derived distances
    _, (acyclic, _, details) = _recipe_facts(
        COUNTEREXAMPLE_RECIPE, dist, (), frozenset({4, 5})
    )
    assert acyclic and forbidden_cycle_check(final_graph, {4, 5}) is None
    assert details["part_cycles_at_least"] == 6
    assert details["extra_cycles"] == [3, 3, 3]
    claw = claw_skeleton(COUNTEREXAMPLE_RECIPE)
    assert (claw.n, claw.m) == (14, 24)
    assert _planarity_check(claw)[0] and is_planar(final_graph).planar


def test_skeleton_refuses_a_seed_with_b_and_c_at_distance_3():
    near = ((0, 3, 3), (3, 0, 3), (3, 3, 0))
    dist, (acyclic, witness, _) = _recipe_facts(
        TRIPLE_RECIPE, near, (0, 1, 2), frozenset({4, 5})
    )
    # the triple's terminals come out at 3, not the contract's 4
    assert [dist[0][1], dist[0][2], dist[1][2]] == [3, 3, 3]
    assert acyclic and witness is None


@pytest.mark.parametrize(
    "edge, weight, vertices",
    [((0, 3), 4, ["a", "d"]), ((0, 1), 5, ["a", "b"])],
    ids=["a-d", "a-b"],
)
def test_skeleton_refuses_an_extra_edge_between_two_slots(edge, weight, vertices):
    seed = seed_contract().exact_terminal_distances
    recipe = dataclasses.replace(
        TRIPLE_RECIPE, extra_edges=TRIPLE_RECIPE.extra_edges + (edge,)
    )
    _, (acyclic, witness, _) = _recipe_facts(recipe, seed, (), frozenset({4, 5}))
    # the new edge and the seed's own path between its ends: a cycle
    # through a part edge light enough to be a 4- or 5-cycle
    assert not acyclic
    assert witness == {"type": "skeleton-cycle", "weight": weight, "vertices": vertices}


def test_skeleton_leaves_a_cycle_inside_one_part_to_that_part():
    # a part whose terminals are pairwise adjacent closes a triangle of
    # its own; only the part's clause can speak for it
    adjacent = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    _, floor, exact, bad = skeleton_facts(3, (), [((0, 1, 2), adjacent)], (), {3})
    assert (floor, exact, bad) == (5, [], None)


def test_skeleton_lists_extra_cycles_up_to_one_past_the_longest_length():
    pentagon = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    assert skeleton_facts(5, pentagon, [], (), {3})[1:] == (5, [], None)
    assert skeleton_facts(5, pentagon, [], (), {4})[1:] == (6, [5], None)
    five = (5, [0, 4, 3, 2, 1])
    assert skeleton_facts(5, pentagon, [], (), {5})[1:] == (7, [5], five)


def test_skeleton_refuses_a_part_cycle_lighter_than_every_length():
    # an extra edge beside a part's 2-path: the pasted cycle is at least
    # 3 and may be 4 or 5, so the skeleton cannot rule those out
    _, floor, exact, bad = skeleton_facts(
        2, ((0, 1),), [((0, 1), ((0, 2), (2, 0)))], (), {4, 5}
    )
    assert (floor, exact, bad) == (3, [], (3, [0, 1]))


def test_a_claw_skeleton_holding_k33_is_refused_with_its_obstruction():
    # three parts on the same three slots: the claws make K3,3
    recipe = PasteRecipe(num_slots=3, parts=((0, 1, 2),) * 3)
    passed, witness, _ = _planarity_check(claw_skeleton(recipe))
    assert not passed
    assert witness["type"] == "kuratowski" and witness["kind"] == "K3,3"


def test_a_claw_fixes_no_order_of_four_terminals():
    recipe = PasteRecipe(num_slots=4, parts=((0, 1, 2, 3),))
    with pytest.raises(PasteError, match="part 0 has 4 terminals: a claw"):
        claw_skeleton(recipe)


def _part_distances(gadget):
    t = gadget.terminals
    return [[distance(gadget.graph, u, v) for v in t] for u in t]


@given(small_recipes(), st.sampled_from([{3}, {4, 5}, {3, 4, 5, 6}]))
@settings(max_examples=80, deadline=None)
def test_skeleton_facts_are_sound_on_the_paste(case, lengths):
    recipe, gadgets, _ = case
    try:
        pasted = paste(recipe, gadgets)
    except PasteError:
        assume(False)  # two parts put an edge on one slot pair
    n = recipe.num_slots + recipe.extra_vertices
    parts = [(slots, _part_distances(g)) for slots, g in zip(recipe.parts, gadgets)]
    dist, floor, exact, bad = skeleton_facts(
        n, recipe.extra_edges, parts, range(n), lengths
    )
    # the skeleton's distances are the paste's, slot and fresh vertices alike
    for u, v in itertools.product(range(n), repeat=2):
        assert dist[u][v] == distance(pasted, u, v), (u, v)
    # a cycle of extra edges alone is a cycle of the paste
    for w in exact:
        assert 3 <= w and (w > 6 or forbidden_cycle_check(pasted, {w}) is not None)
    assert floor > max(lengths) or bad is not None
    # no forbidden skeleton cycle and no forbidden cycle inside a part:
    # none in the paste either
    if bad is None and all(
        forbidden_cycle_check(g.graph, lengths) is None for g in gadgets
    ):
        assert forbidden_cycle_check(pasted, lengths) is None


@given(small_recipes())
@settings(max_examples=80, deadline=None)
def test_a_planar_claw_skeleton_gives_a_planar_paste(case):
    recipe, gadgets, terminals = case
    try:
        pasted = paste(recipe, gadgets)
    except PasteError:
        assume(False)
    assume(all(is_planar(g.graph).planar and terminals_cofacial(g) for g in gadgets))
    if is_planar(claw_skeleton(recipe)).planar:
        assert is_planar(pasted).planar
    if is_planar(claw_skeleton(recipe, terminals)).planar:
        assert terminals_cofacial(
            TerminalGadget(pasted, terminals, InterfaceContract())
        )


# ---------------------------------------------------------------------------
# serialization

def test_gadget_save_load_round_trip(tmp_path, seed_gadget):
    path = tmp_path / "g.json"
    save_gadget(seed_gadget, path, verification={"note": 1})
    back = load_gadget(path)
    assert back.graph == seed_gadget.graph
    assert back.terminals == seed_gadget.terminals
    assert back.contract == seed_gadget.contract
    payload = json.loads(path.read_bytes())
    assert payload["verification"] == {"note": 1}
