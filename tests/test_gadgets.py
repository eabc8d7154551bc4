import dataclasses
import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinberg import (
    ContractError,
    FormatError,
    InterfaceContract,
    PasteError,
    PastePart,
    PasteRecipe,
    TerminalGadget,
    build_counterexample,
    build_graph,
    build_triple_gadget,
    canonical_digest,
    compositional_check,
    counterexample_recipe,
    counterexample_report,
    first_failing_clause,
    forbidden_cycle_check,
    load_gadget,
    paste,
    save_gadget,
    seed_contract,
    terminal_behavior,
    terminals_cofacial,
    triple_contract,
    triple_recipe,
    verify_contract,
)
from steinberg.coloring import (
    all_patterns,
    is_proper,
    pattern_of,
    solve_3coloring,
)
from steinberg.gadgets import (
    gadget_from_json_dict,
    gadget_to_json_dict,
    walk_recipe,
)

from support import cheapest_failing_check, replace_at, triangulated_grid


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
    recipe = PasteRecipe(
        num_slots=3,
        parts=(
            PastePart(edge_gadget(), (0, 1)),
            PastePart(edge_gadget(), (1, 2)),
        ),
    )
    g = paste(recipe)
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_paste_numbering_is_slots_fresh_then_interiors():
    tri_gadget = TerminalGadget(TRIANGLE, (0,), InterfaceContract())
    recipe = PasteRecipe(
        num_slots=1,
        parts=(PastePart(tri_gadget, (0,)),),
        extra_vertices=2,
        extra_edges=((0, 1), (1, 2)),
        labels=((0, "hub"),),
    )
    g = paste(recipe)
    assert g.n == 1 + 2 + 2
    # the fresh vertices 1, 2 carry the extra edges; the triangle's
    # terminal lands on slot 0 and its interior on 3, 4
    assert g.edges == ((0, 1), (0, 3), (0, 4), (1, 2), (3, 4))
    assert dict(g.labels) == {0: "hub"}


def test_paste_maps_preserve_part_edges(seed_gadget):
    # rebuild each part's vertex map by the numbering paste promises:
    # terminals on their slots, interiors after the slots and fresh
    # vertices in part order
    recipe = triple_recipe(seed_gadget)
    next_vertex = recipe.num_slots + recipe.extra_vertices
    want = set(recipe.extra_edges)
    for part in recipe.parts:
        gmap = dict(zip(part.gadget.terminals, part.slots))
        for v in range(part.gadget.graph.n):
            if v not in gmap:
                gmap[v] = next_vertex
                next_vertex += 1
        want |= {tuple(sorted((gmap[u], gmap[v]))) for u, v in part.gadget.graph.edges}
    g = paste(recipe)
    assert g.n == next_vertex
    assert set(g.edges) == want
    assert g.m == 3 * seed_gadget.graph.m + 3


def test_paste_rejects_duplicate_slot_within_part():
    with pytest.raises(PasteError, match="identify two"):
        paste(
            PasteRecipe(
                num_slots=2,
                parts=(PastePart(edge_gadget(), (0, 0)),),
            )
        )


def test_paste_rejects_slot_arity_mismatch():
    with pytest.raises(PasteError, match="assigns"):
        paste(
            PasteRecipe(num_slots=2, parts=(PastePart(edge_gadget(), (0,)),))
        )


def test_paste_rejects_unknown_and_dangling_slots():
    with pytest.raises(PasteError, match="unknown slot"):
        paste(
            PasteRecipe(num_slots=1, parts=(PastePart(edge_gadget(), (0, 3)),))
        )
    with pytest.raises(PasteError, match="dangling slot"):
        paste(
            PasteRecipe(num_slots=3, parts=(PastePart(edge_gadget(), (0, 1)),))
        )


def test_paste_rejects_edge_collisions():
    # two parts landing the same edge
    with pytest.raises(PasteError, match="collision"):
        paste(
            PasteRecipe(
                num_slots=2,
                parts=(
                    PastePart(edge_gadget(), (0, 1)),
                    PastePart(edge_gadget(), (1, 0)),
                ),
            )
        )
    # an extra edge colliding with a part edge
    with pytest.raises(PasteError, match="collision"):
        paste(
            PasteRecipe(
                num_slots=2,
                parts=(PastePart(edge_gadget(), (0, 1)),),
                extra_edges=((0, 1),),
            )
        )


def test_paste_rejects_bad_extra_edges():
    recipe = PasteRecipe(
        num_slots=2,
        parts=(PastePart(edge_gadget(), (0, 1)),),
        extra_edges=((0, 5),),
    )
    with pytest.raises(PasteError, match="outside the union"):
        paste(recipe)
    with pytest.raises(PasteError, match="loop"):
        paste(
            PasteRecipe(
                num_slots=2,
                parts=(PastePart(edge_gadget(), (0, 1)),),
                extra_edges=((0, 0),),
            )
        )


# ---------------------------------------------------------------------------
# the two stock compositions

def test_triple_recipe_orients_the_seed(seed_gadget):
    recipe = triple_recipe(seed_gadget)
    assert recipe.num_slots == 6
    assert len(recipe.parts) == 3
    assert recipe.extra_edges == ((3, 4), (4, 5), (3, 5))
    # each part bridges one terminal pair with its distance-4 pair (b, c)
    seen_pairs = set()
    for part in recipe.parts:
        b_slot = part.slots[1]
        c_slot = part.slots[2]
        seen_pairs.add(frozenset({b_slot, c_slot}))
        assert part.slots[0] in (3, 4, 5)
    assert seen_pairs == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}


def test_triple_paste_ignores_the_seeds_terminal_order(seed_gadget):
    # b and c are told apart by vertex id, so all six orders of the
    # seed's terminals paste the very same triple, not a mirror image
    want = paste(triple_recipe(seed_gadget))
    for order in itertools.permutations(seed_gadget.terminals):
        turned = TerminalGadget(seed_gadget.graph, order, InterfaceContract())
        assert paste(triple_recipe(turned)) == want


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
    raw = paste(counterexample_recipe(triple_gadget))
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
    result = compositional_check(seed_gadget, behavior)
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


def test_composed_triple_table_matches_the_solver(seed_gadget, triple_gadget):
    seed_table = terminal_behavior(seed_gadget, frozenset())
    result = compositional_check(seed_gadget, seed_table)
    triple_table = terminal_behavior(triple_gadget, frozenset())
    assert result["triple_stage"]["table"] == triple_table


def test_compositional_check_catches_a_lying_behavior_table(seed_gadget):
    # if the all-equal pattern were feasible the argument must not close
    lying = dict.fromkeys(all_patterns(3), True)
    result = compositional_check(seed_gadget, lying)
    assert not result["ok"]
    assert result["counterexample"] is not None


def test_compositional_check_rejects_wrong_arity(seed_gadget):
    two = {"00": False, "01": True}
    with pytest.raises(ValueError, match="lists pattern '00'"):
        compositional_check(seed_gadget, two)


def test_compositional_check_reads_the_table_in_the_seeds_terminal_order(
    seed_gadget,
):
    # an asymmetric table, as a search might propose: besides the
    # all-equal pattern, b = c with a apart is infeasible
    a, b, c = seed_gadget.terminals
    table = {p: p not in ("000", "011") for p in all_patterns(3)}
    turned = TerminalGadget(seed_gadget.graph, (b, c, a), InterfaceContract())
    turned_table = {
        p: table[pattern_of([int(p[2]), int(p[0]), int(p[1])])]
        for p in all_patterns(3)
    }
    assert paste(triple_recipe(turned)) == paste(triple_recipe(seed_gadget))
    got = compositional_check(turned, turned_table)
    want = compositional_check(seed_gadget, table)
    assert got["triple_stage"]["table"] == want["triple_stage"]["table"]
    assert got["ok"] == want["ok"]


def test_walk_finds_a_survivor_once_an_extra_edge_is_gone(
    seed_gadget, triple_gadget
):
    seed_table = terminal_behavior(seed_gadget, frozenset())
    result = compositional_check(seed_gadget, seed_table)
    triple_table = result["triple_stage"]["table"]
    recipe = counterexample_recipe(triple_gadget)
    for edge in recipe.extra_edges:
        cut = dataclasses.replace(
            recipe, extra_edges=tuple(e for e in recipe.extra_edges if e != edge)
        )
        walk = walk_recipe(cut, [triple_table] * 4, ())
        assert walk["table"][""], edge
    # the last cut's surviving slot coloring really extends to the graph
    survivor = walk["witnesses"][""]
    pasted = paste(cut)
    fixing = {pasted.vertex_by_label(name): c for name, c in survivor.items()}
    coloring = solve_3coloring(pasted, fixing)
    assert coloring is not None and is_proper(pasted, coloring)


@st.composite
def small_recipes(draw):
    """2-3 random gadgets of at most 7 vertices and arity 2-3, pasted on
    random slots with up to 2 fresh vertices and random extra edges,
    plus 2-3 terminal slots in a random order."""
    parts = []
    slot_pool = draw(st.integers(min_value=3, max_value=6))
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        arity = draw(st.integers(min_value=2, max_value=3))
        n = draw(st.integers(min_value=arity, max_value=7))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
        terminals = tuple(draw(st.permutations(range(n)))[:arity])
        slots = tuple(draw(st.permutations(range(slot_pool)))[:arity])
        gadget = TerminalGadget(build_graph(n, edges), terminals, InterfaceContract())
        parts.append(PastePart(gadget, slots))
    used = sorted({s for part in parts for s in part.slots})
    renumber = {s: i for i, s in enumerate(used)}
    parts = [
        PastePart(p.gadget, tuple(renumber[s] for s in p.slots)) for p in parts
    ]
    num_slots = len(used)
    fresh = draw(st.integers(min_value=0, max_value=2))
    part_edges = set()  # part edges that land on two slots
    for p in parts:
        slot_of = dict(zip(p.gadget.terminals, p.slots))
        part_edges |= {
            frozenset((slot_of[u], slot_of[v]))
            for u, v in p.gadget.graph.edges
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
    return recipe, terminals


@given(small_recipes())
@settings(max_examples=80, deadline=None)
def test_walk_matches_the_solver_on_the_pasted_graph(case):
    recipe, terminals = case
    try:
        pasted = paste(recipe)
    except PasteError:
        assume(False)  # two parts put an edge on one slot pair
    tables = [
        terminal_behavior(part.gadget, frozenset()) for part in recipe.parts
    ]
    walk = walk_recipe(recipe, tables, terminals)
    want = terminal_behavior(
        TerminalGadget(pasted, terminals, InterfaceContract()), frozenset()
    )
    assert walk["table"] == want
    for pattern, coloring in walk["witnesses"].items():
        assert pattern_of([coloring[str(t)] for t in terminals]) == pattern


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
