import itertools
import json
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
from steinberg import coloring
from steinberg.analysis import distance, forbidden_cycle_check
from steinberg.gadgets import gadget_to_json_dict, load_gadget_payload
from steinberg.search import (
    _link_alternatives,
    _template_candidates,
    _template_steps,
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
    subset of ring vertices instead of by pairs: 756 candidates."""
    spec = seed_search_spec()
    layers = tuple(
        replace(layer, link_kind="subsets") if layer.name == "bridges" else layer
        for layer in spec.template.layers
    )
    return replace(spec, template=TemplateSpec(layers=layers))


def test_wide_template_funnel():
    funnel = Counter()
    found = list(search_gadget(wide_spec(), funnel=funnel))
    assert [canonical_digest(g.graph) for g in found] == ["3855c0a1d182d600"]
    assert dict(funnel) == {
        "enumerated": 756,
        "pruned-cycle": 14970,
        "pruned-distance": 96,
        "distance-t1-t2": 408,
        "pattern-000-infeasible": 336,
        "duplicates": 11,
        "emitted": 1,
    }
    assert funnel["not-cofacial"] == 0


def test_wide_search_finds_have_distinct_digests():
    # 12 candidates pass the whole contract; the search emits one per
    # isomorphism class and counts the rest as duplicates
    spec = wide_spec()
    passing = []
    for _, edges in _template_candidates(spec, Counter()):
        gadget = TerminalGadget(build_graph(15, edges), (0, 1, 2), spec.contract)
        if first_failing_clause(gadget) is None:
            passing.append(gadget.graph)
    classes = {canonical_digest(g) for g in passing}
    funnel = Counter()
    digests = [canonical_digest(g.graph) for g in search_gadget(spec, funnel=funnel)]
    assert len(digests) == len(set(digests))
    assert set(digests) == classes
    assert funnel["duplicates"] == len(passing) - len(classes) == 11


INTRA_KINDS = ("none", "path", "cycle", "path_or_cycle", "clique")


def random_template_spec(rng):
    """A small random template under a contract with at most one
    forbidden cycle length and random terminal distance floors."""
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


def unpruned_choices(template):
    """Each layer's edge choices straight from its fields: the intra
    choices of every layer first, then every link choice."""
    verts, start = {}, 0
    for layer in template.layers:
        verts[layer.name] = list(range(start, start + layer.size))
        start += layer.size
    intra, links = [], []
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
            links.append([
                [(t, v) for v, pair in zip(own, chosen) for t in pair]
                for chosen in itertools.combinations(pairs, layer.size)
            ])
        elif layer.link_kind == "subsets":
            for v in own:
                links.append([
                    [(t, v) for t in subset]
                    for k in range(1, len(targets) + 1)
                    for subset in itertools.combinations(targets, k)
                ])
    return start, intra + links


def test_template_candidates_match_the_filtered_product():
    rng = random.Random(2016)
    checked = several_counts = 0
    for _ in range(80):
        spec = random_template_spec(rng)
        n, choices = unpruned_choices(spec.template)
        contract = spec.contract
        floors = contract.min_terminal_distances
        expected = []
        for combo in itertools.product(*choices):
            edges = tuple(sorted(e for part in combo for e in part))
            graph = build_graph(n, edges)
            if forbidden_cycle_check(graph, contract.forbidden_cycle_lengths):
                continue
            if any(
                (d := distance(graph, i, j)) is not None and d < floors[i][j]
                for i, j in itertools.combinations(range(contract.arity), 2)
            ):
                continue
            expected.append((n, edges))
        expected.sort(key=lambda c: len(c[1]))
        assert list(_template_candidates(spec, Counter())) == expected
        checked += len(expected)
        several_counts += len({len(edges) for _, edges in expected}) > 1
    # enough survivors, and enough templates mixing edge counts, for the
    # order and the prunes to be pinned
    assert checked > 500 and several_counts > 10


def filtered_product(spec):
    """The template's unpruned product, less every candidate with a
    forbidden cycle or a terminal pair closer than its floor, stably
    sorted by edge count."""
    n, choices = unpruned_choices(spec.template)
    contract = spec.contract
    floors = contract.min_terminal_distances
    expected = []
    for combo in itertools.product(*choices):
        edges = tuple(sorted(e for part in combo for e in part))
        graph = build_graph(n, edges)
        if forbidden_cycle_check(graph, contract.forbidden_cycle_lengths):
            continue
        if any(
            (d := distance(graph, i, j)) is not None and d < floors[i][j]
            for i, j in itertools.combinations(range(contract.arity), 2)
        ):
            continue
        expected.append((n, edges))
    expected.sort(key=lambda c: len(c[1]))
    return expected


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
        expected = filtered_product(spec)
        assert list(_template_candidates(spec, Counter())) == expected
        checked += len(expected)
        if 6 in lengths:
            rest = with_lengths(spec, lengths - {6})
            six_matters += list(_template_candidates(rest, Counter())) != expected
    # enough survivors, and enough templates where a 6-cycle alone
    # removes candidates, for the deepest mask test to be pinned
    assert checked > 1000 and six_matters > 3


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
        (1203, ((0, 2),) + spokes),
        (1203, ((1, 2),) + spokes),
        (1203, ((0, 2), (1, 2)) + spokes),
    ]


def test_first_failing_clause_is_the_cheapest_failing_check():
    spec = wide_spec()
    passing = 0
    for _, edges in _template_candidates(spec, Counter()):
        gadget = TerminalGadget(build_graph(15, edges), (0, 1, 2), spec.contract)
        report = verify_contract(gadget)
        assert first_failing_clause(gadget) == cheapest_failing_check(report)
        passing += report.passed
    assert passing == 12


def test_search_spec_json_round_trip():
    spec = seed_search_spec()
    back = search_spec_from_json_dict(search_spec_to_json_dict(spec))
    assert back == spec


def test_step_counts_match_the_listed_alternatives():
    # the count that guards memory before the walk is the length of the
    # step the walk would list
    rng = random.Random(1604)
    for _ in range(60):
        template = random_template_spec(rng).template
        sizes = {layer.name: layer.size for layer in template.layers}
        counts = []
        for layer in template.layers:
            if layer.link_kind is not None:
                count = _link_alternatives(
                    layer.link_kind, sizes[layer.link_to], layer.size
                )
                counts += [count] * (layer.size if layer.link_kind == "subsets" else 1)
        links = _template_steps(template)[len(template.layers):]
        assert [len(step) for step in links] == counts
    assert _link_alternatives("pairs", 6, 3) == 455  # the stock bridges
    assert _link_alternatives("subsets", 6, 3) == 63  # the widened bridges
    assert _link_alternatives("pairs", 3, 4) == 0  # four of three pairs
    assert _link_alternatives("subsets", 16, 1) == 2**16 - 1


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
    payload = load_gadget_payload(path)
    ver = payload["verification"]
    assert ver["digest"] == canonical_digest(seed_gadget.graph)
    assert ver["behavior"]["000"] is False
    assert ver["terminals_cofacial"] is True
    assert ver["exhaustive_counts"]["000"] == 0


def test_freeze_record_has_proofs_not_an_oracle_list(tmp_path, seed_gadget, triple_gadget):
    # every pattern verdict is a replayed proof, so the record names no
    # skipped cross-check; the sweep still counts within its guard, which
    # the triple's 39 free vertices are past
    for gadget, counts in ((seed_gadget, {"000": 0}), (triple_gadget, {})):
        path = certify_and_freeze(gadget, tmp_path / f"{gadget.graph.n}.json")
        ver = load_gadget_payload(path)["verification"]
        assert "oracle_skipped" not in ver
        assert ver["exhaustive_counts"] == counts


def test_freeze_sweeps_no_pattern_forced_onto_an_edge(tmp_path):
    # "00" on the two ends of an edge is infeasible by its fixing alone,
    # so the record has its behavior row but no sweep count
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    gadget = TerminalGadget(
        tri, (0, 1), InterfaceContract(forbidden_patterns=frozenset({"00"}))
    )
    path = certify_and_freeze(gadget, tmp_path / "t.json")
    ver = load_gadget_payload(path)["verification"]
    assert ver["behavior"] == {"00": False, "01": True}
    assert ver["exhaustive_counts"] == {}


def test_freeze_records_no_sweep_count_past_the_sweep_guard(
    tmp_path, monkeypatch, seed_gadget
):
    # the guard lives in the sweep alone: lowered below the seed's 12 free
    # vertices, the record keeps its keys and lists no count
    monkeypatch.setattr(coloring, "_EXHAUSTIVE_LIMIT", 11)
    path = certify_and_freeze(seed_gadget, tmp_path / "seed.json")
    ver = load_gadget_payload(path)["verification"]
    assert ver["exhaustive_counts"] == {}


def test_certify_and_freeze_refuses_a_failing_gadget(tmp_path):
    p3 = build_graph(3, [(0, 1), (1, 2)])
    gadget = TerminalGadget(
        p3, (0, 2), InterfaceContract(exact_terminal_distances=((0, 3), (3, 0)))
    )
    with pytest.raises(ContractError, match="refusing to freeze"):
        certify_and_freeze(gadget, tmp_path / "nope.json")
    assert not (tmp_path / "nope.json").exists()

