import itertools
import json
import math
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from steinberg import (
    ContractError,
    InterfaceContract,
    LayerSpec,
    SearchSpec,
    SearchSpecError,
    TemplateSpec,
    TerminalGadget,
    build_graph,
    canonical_digest,
    certify_and_freeze,
    first_failing_clause,
    load_gadget,
    search_gadget,
    seed_search_spec,
    verify_contract,
)
from steinberg.analysis import distance, forbidden_cycle_check
from steinberg.canon import canonical_form
from steinberg.gadgets import (
    gadget_to_json_dict,
    terminals_cofacial,
)
from steinberg.search import (
    _closes_forbidden_cycle,
    _hub_survivors,
    _template_candidates,
    _template_steps,
    funnel_line,
    load_search_spec,
    search_spec_from_json_dict,
    search_spec_to_json_dict,
)

from support import cheapest_failing_check, deep_template_spec, stack_depth


TRIANGLE_CONTRACT = InterfaceContract(
    exact_terminal_distances=((0, 1, 1), (1, 0, 1), (1, 1, 0)),
)


TRIANGLE = TemplateSpec(layers=(LayerSpec("terminals", 3, intra="clique"),))
# the triangle and a fourth vertex joined to any nonempty set of its
# corners: seven candidates in three isomorphism classes
TRIANGLE_AND_APEX = TemplateSpec(layers=(
    LayerSpec("terminals", 3, intra="clique"),
    LayerSpec("apex", 1, link_to="terminals", link_kind="subsets"),
))


def test_raw_search_finds_the_triangle():
    # of the path and the triangle on the terminals, only the triangle
    # puts every terminal pair at distance 1
    template = TemplateSpec(layers=(LayerSpec("terminals", 3, intra="path_or_cycle"),))
    found = list(search_gadget(SearchSpec(TRIANGLE_CONTRACT, template)))
    assert len(found) == 1
    gadget = found[0]
    assert gadget.graph.edges == ((0, 1), (0, 2), (1, 2))
    assert gadget.terminals == (0, 1, 2)
    assert gadget.contract == TRIANGLE_CONTRACT


def test_search_respects_limit():
    spec = SearchSpec(TRIANGLE_CONTRACT, TRIANGLE_AND_APEX)
    assert len(list(search_gadget(spec))) == 3
    assert len(list(search_gadget(spec, limit=1))) == 1
    assert list(search_gadget(spec, limit=0)) == []


def test_search_needs_an_arity():
    spec = SearchSpec(InterfaceContract(), TRIANGLE)
    with pytest.raises(SearchSpecError):
        list(search_gadget(spec))


def test_template_search_triangle():
    spec = SearchSpec(TRIANGLE_CONTRACT, TRIANGLE)
    found = list(search_gadget(spec))
    assert len(found) == 1
    assert found[0].graph.m == 3


def test_template_validation():
    bad_intra = SearchSpec(
        contract=TRIANGLE_CONTRACT,
        template=TemplateSpec(layers=(LayerSpec("a", 3, intra="star"),)),
    )
    with pytest.raises(SearchSpecError, match="intra"):
        list(search_gadget(bad_intra))
    bad_link = SearchSpec(
        contract=TRIANGLE_CONTRACT,
        template=TemplateSpec(
            layers=(
                LayerSpec("a", 3),
                LayerSpec("b", 3, link_to="missing", link_kind="pairs"),
            )
        ),
    )
    with pytest.raises(SearchSpecError, match="links to unknown"):
        list(search_gadget(bad_link))


def test_stock_seed_search_rediscovers_the_frozen_gadget(seed_gadget):
    found = next(iter(search_gadget(seed_search_spec(), limit=1)))
    assert found.graph.n == 15 and found.graph.m == 23
    assert canonical_digest(found.graph) == canonical_digest(seed_gadget.graph)


def wide_spec():
    """The stock seed template with the bridges linked by any nonempty
    subset of ring vertices instead of by pairs: 756 candidates, which
    the walk cuts to 126 by taking the three bridges' subsets in
    nondecreasing order."""
    spec = seed_search_spec()
    layers = tuple(
        replace(layer, link_kind="subsets") if layer.name == "bridges" else layer
        for layer in spec.template.layers
    )
    return replace(spec, template=TemplateSpec(layers=layers))


@pytest.fixture(scope="module")
def wide_unreduced():
    """Every candidate of the wide template, the bridges in every order."""
    return filtered_product(wide_spec(), reduced=False)


def test_wide_template_funnel():
    funnel = Counter()
    found = list(search_gadget(wide_spec(), funnel=funnel))
    assert [canonical_digest(g.graph) for g in found] == ["3855c0a1d182d600"]
    assert dict(funnel) == {
        "enumerated": 126,
        "pruned-cycle": 7746,
        "pruned-distance": 96,
        "distance-t1-t2": 68,
        "pattern-000-infeasible": 56,
        "duplicates": 1,
        "emitted": 1,
    }
    assert funnel["not-cofacial"] == 0


def test_funnel_counts_a_candidate_whose_terminals_share_no_face():
    # two hubs on any nonempty sets of three terminals, every terminal
    # pair at least 2 apart: only the K2,3, both hubs on all three
    # terminals, passes the contract yet puts its terminals on no face
    contract = InterfaceContract(
        min_terminal_distances=((0, 2, 2), (2, 0, 2), (2, 2, 0)),
        require_planar=True,
    )
    template = TemplateSpec(layers=(
        LayerSpec("terminals", 3),
        LayerSpec("hubs", 2, link_to="terminals", link_kind="subsets"),
    ))
    funnel = Counter()
    found = list(search_gadget(SearchSpec(contract, template), funnel=funnel))
    assert funnel_line(funnel) == (
        "funnel: enumerated 28, pruned-cycle 0, pruned-distance 0,"
        " distance-t0-t1 14, distance-t0-t2 4, not-cofacial 1,"
        " duplicates 6, emitted 3"
    )
    for gadget in found:
        g = gadget.graph
        assert list(map(len, g.adj)).count(3) < 2, g.edges


def test_wide_search_finds_have_distinct_digests(wide_unreduced):
    # 12 candidates pass the whole contract; the search emits one per
    # isomorphism class, the first in product order
    spec = wide_spec()
    assert len(wide_unreduced) == 756
    first = {}
    for edges in wide_unreduced:
        gadget = TerminalGadget(build_graph(15, edges), (0, 1, 2), spec.contract)
        if first_failing_clause(gadget) is None:
            first.setdefault(canonical_digest(gadget.graph), []).append(edges)
    passing = sum(len(members) for members in first.values())
    assert (passing, len(first)) == (12, 1)  # 11 duplicates
    digests = {canonical_digest(g.graph): g.graph.edges for g in search_gadget(spec)}
    assert digests == {key: members[0] for key, members in first.items()}


INTRA_KINDS = ("none", "path", "cycle", "path_or_cycle", "clique")


def random_template_spec(rng):
    """A small random template, its non-terminal layers of at most 2
    vertices unless they match a larger one, under a
    contract with at most one forbidden cycle length and random terminal
    distance floors."""
    arity = rng.randint(1, 3)
    layers = [LayerSpec("L0", arity)]
    for i in range(1, rng.randint(2, 5)):
        target = rng.choice(layers)
        kinds = ["subsets", "matching"] + (["pairs"] if target.size >= 2 else [])
        kind = rng.choice(kinds)
        size = target.size if kind == "matching" else rng.randint(1, 2)
        layers.append(
            LayerSpec(f"L{i}", size, rng.choice(INTRA_KINDS), target.name, kind)
        )
    floors = [[0] * arity for _ in range(arity)]
    for i, j in itertools.combinations(range(arity), 2):
        floors[i][j] = floors[j][i] = rng.randint(1, 3)
    contract = InterfaceContract(
        forbidden_cycle_lengths=frozenset(rng.sample([3, 4, 5], rng.randint(0, 1))),
        min_terminal_distances=tuple(map(tuple, floors)),
    )
    return SearchSpec(contract, TemplateSpec(tuple(layers)))


def interchangeable(template):
    """Layers whose vertices can be permuted with the template unchanged:
    own edges that every permutation keeps (none, a clique, a triangle,
    one edge), and every layer linking to it picks subsets or is a
    matching or pairs layer that is interchangeable too."""
    def symmetric(layer):
        return (
            layer.intra in ("none", "clique")
            or layer.size <= 2
            or (layer.size == 3 and layer.intra == "cycle")
        )

    def free(layer):
        return symmetric(layer) and all(
            other.link_kind == "subsets" or free(other)
            for other in template.layers
            if other.link_to == layer.name
        )

    return {layer.name for layer in template.layers if free(layer)}


def unpruned_choices(template, every_order=False):
    """Each layer's edge choices straight from its fields: the intra
    choices of every layer first, then every link choice, with the pairs
    of a layer that is not interchangeable, or of every layer with
    ``every_order``, in every order.  Also the choices that may not come
    before the one just ahead of them: every subsets vertex of an
    interchangeable layer after its first."""
    verts, start = {}, 0
    for layer in template.layers:
        verts[layer.name] = list(range(start, start + layer.size))
        start += layer.size
    free = interchangeable(template)
    intra, links, ties = [], [], set()
    for layer in template.layers:
        own = verts[layer.name]
        path = list(zip(own, own[1:]))
        cycle = [path + [(own[0], own[-1])]] if len(own) >= 3 else []
        intra.append({
            "none": [[]],
            "path": [path],
            "cycle": cycle or [path],
            "path_or_cycle": [path] + cycle,
            "clique": [list(itertools.combinations(own, 2))],
        }[layer.intra])
        targets = verts.get(layer.link_to, [])
        if layer.link_kind == "matching":
            links.append([list(zip(targets, own))])
        elif layer.link_kind == "pairs":
            pairs = list(itertools.combinations(targets, 2))
            orders = (
                itertools.combinations if layer.name in free and not every_order
                else itertools.permutations
            )
            links.append([
                [(t, v) for v, pair in zip(own, chosen) for t in pair]
                for chosen in orders(pairs, layer.size)
            ])
        elif layer.link_kind == "subsets":
            for v in own:
                if v != own[0] and layer.name in free:
                    ties.add(len(template.layers) + len(links))
                links.append([
                    [(t, v) for t in subset]
                    for k in range(1, len(targets) + 1)
                    for subset in itertools.combinations(targets, k)
                ])
    return start, intra + links, ties


def filtered_product(spec, reduced=True):
    """The template's product in product order, less every candidate with
    a forbidden cycle or a terminal pair closer than its floor.  With
    ``reduced``, tied choices are nondecreasing.  Both prunes only grow
    with the edges, so a prefix that fails one is dropped with all of its
    extensions."""
    n, choices, ties = unpruned_choices(spec.template)
    contract = spec.contract
    floors = contract.exact_terminal_distances or contract.min_terminal_distances
    out = []

    def fails(edges):
        graph = build_graph(n, edges)
        if forbidden_cycle_check(graph, contract.forbidden_cycle_lengths):
            return True
        return any(
            (d := distance(graph, i, j)) is not None and d < floors[i][j]
            for i, j in itertools.combinations(range(contract.arity), 2)
        )

    def extend(picked, edges):
        if fails(edges):
            return
        step = len(picked)
        if step == len(choices):
            out.append(tuple(sorted(edges)))
            return
        low = picked[-1] if reduced and step in ties else 0
        for i in range(low, len(choices[step])):
            extend(picked + [i], edges + choices[step][i])

    extend([], [])
    return out


def walked(spec):
    """The walk's candidates, as edge tuples."""
    return list(_template_candidates(spec, Counter()))


def test_template_candidates_match_the_filtered_product():
    rng = random.Random(2016)
    checked = several_counts = 0
    for _ in range(80):
        spec = random_template_spec(rng)
        expected = sorted(filtered_product(spec), key=len)
        assert walked(spec) == expected
        checked += len(expected)
        several_counts += len({len(edges) for edges in expected}) > 1
    # enough survivors, and enough templates mixing edge counts, for the
    # order and the prunes to be pinned
    assert checked > 500 and several_counts > 10


def test_template_candidates_match_the_filtered_product_at_every_length():
    # one or two forbidden lengths from 3..6: the walk closes cycles by
    # growing paths zero to three edges before its last mask test
    def with_lengths(spec, lengths):
        return replace(
            spec, contract=replace(spec.contract, forbidden_cycle_lengths=lengths)
        )

    rng = random.Random(1506)
    checked = six_matters = 0
    for _ in range(160):
        lengths = frozenset(rng.sample([3, 4, 5, 6], rng.randint(1, 2)))
        spec = with_lengths(random_template_spec(rng), lengths)
        expected = sorted(filtered_product(spec), key=len)
        assert walked(spec) == expected
        checked += len(expected)
        if 6 in lengths:
            six_matters += walked(with_lengths(spec, lengths - {6})) != expected
    # enough survivors, and enough templates where a 6-cycle alone
    # removes candidates, for the deepest mask test to be pinned
    assert checked > 1000 and six_matters > 3


def interchangeable_template_spec(rng):
    """A small random template with a subsets layer "x" of 2 or 3
    vertices whose own edges and dependents let them be swapped, under a
    random contract; drawn again until its product has at most 4,000
    candidates, so that the unreduced product stays quick to list."""
    while True:
        arity = rng.randint(2, 3)
        layers = [LayerSpec("t", arity)]
        if rng.random() < 0.6:
            layers.append(LayerSpec(
                "ring", rng.randint(2, 3), rng.choice(INTRA_KINDS), "t", "subsets"
            ))
        size = rng.randint(2, 3)
        layers.append(LayerSpec(
            "x", size, rng.choice(["none", "clique"]), rng.choice(layers).name,
            "subsets",
        ))
        kind = rng.choice([None, "subsets", "matching", "pairs"])
        intra = rng.choice(["none", "clique"])
        if kind == "matching":
            layers.append(LayerSpec("y", size, intra, "x", "matching"))
        elif kind == "pairs":
            layers.append(LayerSpec("y", rng.randint(1, 2), intra, "x", "pairs"))
        elif kind == "subsets":
            layers.append(LayerSpec("y", 1, rng.choice(INTRA_KINDS), "x", "subsets"))
        floors = [[0] * arity for _ in range(arity)]
        for i, j in itertools.combinations(range(arity), 2):
            floors[i][j] = floors[j][i] = rng.randint(1, 3)
        contract = InterfaceContract(
            forbidden_cycle_lengths=frozenset(rng.sample([3, 4, 5], rng.randint(0, 1))),
            min_terminal_distances=tuple(map(tuple, floors)),
            forbidden_patterns=frozenset({"0" * arity} if rng.random() < 0.5 else ()),
            require_planar=rng.random() < 0.5,
        )
        template = TemplateSpec(tuple(layers))
        _, choices, _ = unpruned_choices(template)
        if math.prod(map(len, choices)) <= 4000:
            return SearchSpec(contract, template)


def test_swapping_interchangeable_vertices_loses_no_class():
    # the unreduced product's passing candidates, grouped by class: the
    # search emits one per class, the first in product order, fewer edges
    # first and then by canonical form
    rng = random.Random(1996)
    cut = duplicated = 0
    for _ in range(30):
        spec = interchangeable_template_spec(rng)
        n, _, ties = unpruned_choices(spec.template)
        follows = _template_steps(spec.template)[1]
        assert ties and {i for i, f in enumerate(follows) if f is not None} == ties
        assert all(follows[i] == i - 1 for i in ties)
        unreduced = filtered_product(spec, reduced=False)
        cut += len(walked(spec)) < len(unreduced)
        first = {}
        for edges in unreduced:
            gadget = TerminalGadget(
                build_graph(n, edges), tuple(range(spec.contract.arity)), spec.contract
            )
            if first_failing_clause(gadget) is None and (
                not spec.contract.require_planar or terminals_cofacial(gadget)
            ):
                first.setdefault(canonical_form(gadget.graph).data, []).append(edges)
        order = sorted(first, key=lambda key: (len(first[key][0]), key))
        found = [g.graph.edges for g in search_gadget(spec)]
        assert found == [first[key][0] for key in order]
        duplicated += sum(len(members) > 1 for members in first.values())
    # enough templates whose walk the ordering cuts, and enough classes
    # met more than once in the product, for a lost class to show
    assert cut > 15 and duplicated > 100


def two_terminal_spec(*layers):
    contract = InterfaceContract(min_terminal_distances=((0, 1), (1, 0)))
    return SearchSpec(contract, TemplateSpec((LayerSpec("t", 2), *layers)))


# subsets layers whose vertices cannot all be swapped: their own edges, a
# matching layer's edges or a pairs layer's edges tell them apart
NOT_INTERCHANGEABLE = {
    "path-intra": (LayerSpec("x", 3, "path", "t", "subsets"),),
    "matched-by-path-or-cycle": (
        LayerSpec("x", 3, "none", "t", "subsets"),
        LayerSpec("y", 3, "path_or_cycle", "x", "matching"),
    ),
    "paired-by-cycle": (
        LayerSpec("x", 4, "none", "t", "subsets"),
        LayerSpec("y", 4, "cycle", "x", "pairs"),
    ),
}


@pytest.mark.parametrize("name", list(NOT_INTERCHANGEABLE))
def test_walk_keeps_every_order_of_vertices_it_cannot_swap(name):
    layers = NOT_INTERCHANGEABLE[name]
    spec = two_terminal_spec(*layers)
    assert walked(spec) == sorted(filtered_product(spec, reduced=False), key=len)
    # the same layers with no edges of their own are cut down
    twin = two_terminal_spec(*(replace(layer, intra="none") for layer in layers))
    reduced = sorted(filtered_product(twin), key=len)
    assert walked(twin) == reduced
    assert len(reduced) < len(filtered_product(twin, reduced=False))


# a subsets layer "x" over the two terminals and a pairs layer "y" over x
# with a path of its own: y's vertices cannot be swapped, so the pairs go
# to them in every order
PAIRED_BY_PATH = {
    f"x{size}-{intra}-y{pairs}" + ("-planar" if planar else ""): (
        (LayerSpec("x", size, intra, "t", "subsets"),
         LayerSpec("y", pairs, "path", "x", "pairs")),
        planar,
    )
    for size, pairs, intras, planars in (
        (3, 3, ("none", "path", "cycle"), (False, True)),
        (4, 2, ("path",), (False,)),
    )
    for intra in intras
    for planar in planars
}


@pytest.mark.parametrize("name", list(PAIRED_BY_PATH))
def test_pairs_in_every_order_lose_no_class(name):
    # the classes of the product that gives every layer's pairs in every
    # order, each emitted once; with y's pairs in increasing order only,
    # x3-path-y3 kept 9 of its 22 classes
    layers, planar = PAIRED_BY_PATH[name]
    spec = two_terminal_spec(*layers)
    spec = replace(spec, contract=replace(spec.contract, require_planar=planar))
    n, choices, _ = unpruned_choices(spec.template, every_order=True)
    classes = set()
    for picked in itertools.product(*choices):
        gadget = TerminalGadget(
            build_graph(n, [e for edges in picked for e in edges]), (0, 1),
            spec.contract,
        )
        if first_failing_clause(gadget) is None and (
            not planar or terminals_cofacial(gadget)
        ):
            classes.add(canonical_form(gadget.graph).data)
    found = [canonical_form(g.graph).data for g in search_gadget(spec)]
    assert sorted(found) == sorted(classes)


@pytest.mark.parametrize("y_intra", ["cycle", "none"])
def test_a_triangle_layer_is_interchangeable(y_intra):
    # a cycle on 3 vertices is a triangle, which every permutation of
    # them keeps, so x and y swap like clique layers: the walk keeps the
    # clique template's 10 candidates and finds its 5 classes
    def spec(x_intra, y_intra):
        contract = InterfaceContract(
            min_terminal_distances=((0, 1), (1, 0)), require_planar=False
        )
        return SearchSpec(contract, TemplateSpec((
            LayerSpec("t", 2),
            LayerSpec("x", 3, x_intra, "t", "subsets"),
            LayerSpec("y", 3, y_intra, "x", "pairs"),
        )))

    triangles = spec("cycle", y_intra)
    assert interchangeable(triangles.template) == {"t", "x", "y"}
    assert len(walked(triangles)) == 10
    found = [canonical_form(g.graph).data for g in search_gadget(triangles)]
    cliques = [
        canonical_form(g.graph).data for g in search_gadget(spec("clique", y_intra))
    ]
    assert len(found) == 5 and found == cliques


def test_hub_step_prune_matches_the_edge_by_edge_test():
    # a subsets step's cycle prune, decided once for all of its
    # alternatives from the paths grown from each target, keeps exactly
    # the alternatives whose edges, added one step at a time, close no
    # forbidden cycle
    rng = random.Random(1919)
    pruned = kept = near_decides = 0
    for _ in range(400):
        n = rng.randint(4, 11)
        hub = n - 1
        adj = [0] * n

        def join(u, v):
            adj[u] |= 1 << v
            adj[v] |= 1 << u

        density = rng.choice([0.2, 0.35, 0.5])
        for u, v in itertools.combinations(range(hub), 2):
            if rng.random() < density:
                join(u, v)
        others = rng.sample(range(hub), hub)
        targets = sorted(others[:rng.randint(1, min(4, hub))])
        if rng.random() < 0.5:  # the hub's own earlier neighbors
            for u in others[len(targets):][:rng.randint(1, 2)]:
                join(u, hub)
        step = [
            tuple((t, hub) for t in subset)
            for k in range(1, len(targets) + 1)
            for subset in itertools.combinations(targets, k)
        ]
        masks = [sum(1 << t for t, _ in edges) for edges in step]
        lengths = frozenset(rng.sample([3, 4, 5, 6], rng.randint(1, 3)))
        start = rng.randrange(len(step))
        expected = []
        for i in range(start, len(step)):
            trial = adj[:]
            for t, v in step[i]:
                trial[t] |= 1 << v
                trial[v] |= 1 << t
            if not _closes_forbidden_cycle(trial, step[i], lengths):
                expected.append(i)
            elif len(step[i]) == 1:
                near_decides += 1
        assert _hub_survivors(adj, hub, masks, start, lengths) == expected
        pruned += len(step) - start - len(expected)
        kept += len(expected)
    # enough of both verdicts, and enough single edges that close a cycle
    # only through the hub's own neighbors, for a wrong prune to show
    assert pruned > 300 and kept > 300 and near_decides > 30


def test_deep_template_walks_without_recursion():
    # 1,201 link steps; the walk keeps its own stack
    spec = search_spec_from_json_dict(deep_template_spec())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        found = list(_template_candidates(spec, Counter()))
    finally:
        sys.setrecursionlimit(limit)
    spokes = tuple((2, x) for x in range(3, 1203))
    assert found == [
        ((0, 2),) + spokes,
        ((1, 2),) + spokes,
        ((0, 2), (1, 2)) + spokes,
    ]


def test_first_failing_clause_is_the_cheapest_failing_check(wide_unreduced):
    spec = wide_spec()
    passing = 0
    for edges in wide_unreduced:
        gadget = TerminalGadget(build_graph(15, edges), (0, 1, 2), spec.contract)
        report = verify_contract(gadget)
        assert first_failing_clause(gadget) == cheapest_failing_check(report)
        passing += report.passed
    assert passing == 12


def test_search_spec_json_round_trip():
    spec = seed_search_spec()
    back = search_spec_from_json_dict(search_spec_to_json_dict(spec))
    assert back == spec


def test_the_edge_budget_counts_listed_then_held_edges(monkeypatch):
    # the widened template lists 665 edges: its layers' own, 11 on the
    # ring and 3 on the inner triangle, then 72 of the ring's links, 576
    # of the bridges' and 3 of the inner matching; its walk then holds
    # 2,634 more in 126 candidates.  The search finds the same at exactly
    # that budget, and one edge less is refused where it runs out
    spec = wide_spec()
    funnel = Counter()
    expected = [g.graph.edges for g in search_gadget(spec, funnel=funnel)]
    assert len(expected) == 1
    monkeypatch.setattr("steinberg.search._HOLD_CAP", 665 + 2634)
    again = Counter()
    assert [g.graph.edges for g in search_gadget(spec, funnel=again)] == expected
    assert again == funnel
    for cap, where in ((665 + 2633, "holding candidates"),
                       (664, "listing layer 'inner'"),
                       (86, "listing layer 'bridges'"),
                       (13, "listing layer 'inner'"),
                       (10, "listing layer 'ring'")):
        monkeypatch.setattr("steinberg.search._HOLD_CAP", cap)
        with pytest.raises(SearchSpecError) as info:
            list(search_gadget(spec))
        assert str(info.value) == (
            f"template holds more than {cap} edges before its first check"
            f" ({where})"
        )


def test_old_spec_and_gadget_keys_are_ignored(tmp_path, seed_gadget):
    # max_vertices, dedup and verified were once written; files that
    # still carry them load as if they did not
    spec = search_spec_to_json_dict(seed_search_spec())
    old_spec = {**spec, "max_vertices": 15, "dedup": True}
    gadget = gadget_to_json_dict(seed_gadget)
    old_gadget = {
        **gadget, "contract": {**gadget["contract"], "verified": True}
    }
    loaded = {}
    for name, doc in (("spec", spec), ("old-spec", old_spec),
                      ("gadget", gadget), ("old-gadget", old_gadget)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        load = load_search_spec if name.endswith("spec") else load_gadget
        loaded[name] = load(path)
    assert loaded["old-spec"] == loaded["spec"] == seed_search_spec()
    assert loaded["old-gadget"] == loaded["gadget"] == seed_gadget


def test_load_search_spec(tmp_path):
    spec = seed_search_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(search_spec_to_json_dict(spec)))
    assert load_search_spec(path) == spec


def test_certify_and_freeze_round_trip(tmp_path, seed_gadget):
    path = certify_and_freeze(seed_gadget, tmp_path / "frozen.json")
    back = load_gadget(path)
    assert back.graph == seed_gadget.graph
    assert back.contract == seed_gadget.contract
    payload = json.loads(path.read_bytes())
    ver = payload["verification"]
    assert ver["digest"] == canonical_digest(seed_gadget.graph)
    assert ver["behavior"]["000"] is False
    assert ver["terminals_cofacial"] is True
    assert "exhaustive_counts" not in ver


def test_freeze_record_has_proofs_not_an_oracle_list(tmp_path, seed_gadget, triple_gadget):
    # every pattern verdict is a replayed proof, so the record names no
    # skipped cross-check and carries no sweep count
    for gadget in (seed_gadget, triple_gadget):
        path = certify_and_freeze(gadget, tmp_path / f"{gadget.graph.n}.json")
        ver = json.loads(path.read_bytes())["verification"]
        assert "oracle_skipped" not in ver
        assert "exhaustive_counts" not in ver


def test_freeze_records_a_pattern_forced_onto_an_edge(tmp_path):
    # "00" on the two ends of an edge is infeasible by its fixing alone;
    # the clause passes on that, and the record has its behavior row
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    gadget = TerminalGadget(
        tri, (0, 1), InterfaceContract(forbidden_patterns=frozenset({"00"}))
    )
    path = certify_and_freeze(gadget, tmp_path / "t.json")
    ver = json.loads(path.read_bytes())["verification"]
    assert ver["behavior"] == {"00": False, "01": True}


# the packaged seed as frozen before records dropped the sweep counts
_SWEPT_SEED_RECORD = {
    "contract": {
        "exact_terminal_distances": [[0, 3, 3], [3, 0, 4], [3, 4, 0]],
        "forbidden_cycle_lengths": [4, 5],
        "forbidden_patterns": ["000"],
        "min_terminal_distances": None,
        "require_planar": True,
    },
    "edges": [
        [0, 5], [0, 6], [1, 3], [1, 4], [2, 7], [2, 8], [3, 4], [3, 9],
        [4, 5], [4, 10], [5, 6], [5, 10], [6, 7], [6, 11], [7, 8], [7, 11],
        [8, 9], [9, 12], [10, 13], [11, 14], [12, 13], [12, 14], [13, 14],
    ],
    "labels": {
        "0": "a", "1": "b", "10": "k", "11": "l", "12": "m", "13": "n",
        "14": "o", "2": "c", "3": "d", "4": "e", "5": "f", "6": "g", "7": "h",
        "8": "i", "9": "j",
    },
    "n": 15,
    "terminals": [0, 1, 2],
    "verification": {
        "behavior": {
            "000": False, "001": True, "010": True, "011": True, "012": True,
        },
        "checks": [
            "forbidden-cycles", "distance-t0-t1", "distance-t0-t2",
            "distance-t1-t2", "pattern-000-infeasible", "planarity",
        ],
        "digest": "3855c0a1d182d600",
        "exhaustive_counts": {"000": 0},
        "terminals_cofacial": True,
        "tool_version": "0.1.0",
    },
}


def test_a_record_with_sweep_counts_still_loads(tmp_path, seed_gadget):
    # records frozen with exhaustive_counts load as the seed they froze,
    # and re-freezing that seed drops only the key
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_SWEPT_SEED_RECORD))
    assert load_gadget(path) == seed_gadget
    fresh = certify_and_freeze(load_gadget(path), tmp_path / "new.json")
    old = dict(_SWEPT_SEED_RECORD["verification"])
    del old["exhaustive_counts"]
    assert json.loads(fresh.read_bytes()) == {**_SWEPT_SEED_RECORD, "verification": old}


def test_certify_and_freeze_refuses_a_failing_gadget(tmp_path):
    p3 = build_graph(3, [(0, 1), (1, 2)])
    gadget = TerminalGadget(
        p3, (0, 2), InterfaceContract(exact_terminal_distances=((0, 3), (3, 0)))
    )
    # the refusal is require_contract's: the clause and its witness
    with pytest.raises(ContractError, match="clause distance-t0-t1 failed") as exc:
        certify_and_freeze(gadget, tmp_path / "nope.json")
    assert exc.value.clause == "distance-t0-t1"
    assert '"path": [0, 1, 2]' in str(exc.value)
    assert not (tmp_path / "nope.json").exists()



def test_freeze_refuses_terminals_that_share_no_face(tmp_path):
    # K4 is planar, but K4 with an apex joined to all four is K5: every
    # clause passes and the co-facial test refuses the freeze
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    gadget = TerminalGadget(k4, (0, 1, 2, 3), InterfaceContract(require_planar=True))
    path = tmp_path / "k4.json"
    refusal = "refusing to freeze: terminals are not co-facial"
    with pytest.raises(ContractError, match=refusal) as exc:
        certify_and_freeze(gadget, path)
    assert exc.value.clause == "cofacial"
    assert not path.exists()


@pytest.mark.parametrize("spec", [seed_search_spec, wide_spec])
def test_a_find_freezes_as_its_plain_gadget_does(tmp_path, spec):
    # a find carries the search's evidence, a rebuilt gadget none; both
    # freeze to the same bytes
    finds = list(search_gadget(spec()))
    assert finds
    for i, find in enumerate(finds):
        plain = TerminalGadget(find.graph, find.terminals, find.contract)
        assert find.search_digest == canonical_digest(find.graph)
        assert plain.search_digest is None
        assert plain == find and hash(plain) == hash(find)
        assert repr(plain) == repr(find)
        assert gadget_to_json_dict(plain) == gadget_to_json_dict(find)
        got = certify_and_freeze(find, tmp_path / f"find-{i}.json")
        want = certify_and_freeze(plain, tmp_path / f"plain-{i}.json")
        assert got.read_bytes() == want.read_bytes()


def test_a_find_with_a_replaced_contract_is_checked_again(tmp_path):
    # replace() drops the evidence: the new contract's clauses run, and
    # the feasible "012" is refused by its own clause
    find = next(iter(search_gadget(seed_search_spec())))
    contract = replace(find.contract, forbidden_patterns=frozenset({"000", "012"}))
    changed = replace(find, contract=contract)
    assert changed.search_digest is None
    path = tmp_path / "changed.json"
    with pytest.raises(ContractError, match="clause pattern-012-infeasible") as exc:
        certify_and_freeze(changed, path)
    assert exc.value.clause == "pattern-012-infeasible"
    assert not path.exists()
