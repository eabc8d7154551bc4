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
    shrink_counterexample,
    verify_contract,
)
from steinberg.gadgets import load_gadget_payload
from steinberg.search import (
    _template_candidates,
    load_search_spec,
    search_spec_from_json_dict,
    search_spec_to_json_dict,
)

from support import cheapest_failing_check


TRIANGLE_CONTRACT = InterfaceContract(
    exact_terminal_distances=((0, 1, 1), (1, 0, 1), (1, 1, 0)),
)


def test_raw_search_finds_the_triangle():
    spec = SearchSpec(max_vertices=3, contract=TRIANGLE_CONTRACT)
    found = list(search_gadget(spec))
    assert len(found) == 1
    gadget = found[0]
    assert gadget.graph.edges == ((0, 1), (0, 2), (1, 2))
    assert gadget.terminals == (0, 1, 2)
    assert gadget.contract.verified


def test_search_respects_limit():
    spec = SearchSpec(max_vertices=4, contract=TRIANGLE_CONTRACT)
    assert len(list(search_gadget(spec, limit=1))) == 1
    assert list(search_gadget(spec, limit=0)) == []


def test_search_needs_an_arity():
    spec = SearchSpec(max_vertices=3, contract=InterfaceContract())
    with pytest.raises(SearchSpecError):
        list(search_gadget(spec))


def test_raw_search_guard():
    spec = SearchSpec(max_vertices=7, contract=TRIANGLE_CONTRACT)
    with pytest.raises(SearchSpecError, match="template"):
        list(search_gadget(spec))


def test_dedup_collapses_isomorphic_hits():
    # terminals at distance exactly 2: on four vertices several labeled
    # graphs satisfy it, fewer isomorphism classes do
    contract = InterfaceContract(exact_terminal_distances=((0, 2), (2, 0)))
    spec = SearchSpec(max_vertices=4, contract=contract)
    deduped = list(search_gadget(spec))
    raw = list(search_gadget(SearchSpec(4, contract, dedup=False)))
    assert len(deduped) < len(raw)
    digests = [canonical_digest(g.graph) for g in deduped]
    assert len(digests) == len(set(digests))


def test_template_search_triangle():
    template = TemplateSpec(layers=(LayerSpec("terminals", 3, intra="clique"),))
    spec = SearchSpec(max_vertices=3, contract=TRIANGLE_CONTRACT, template=template)
    found = list(search_gadget(spec))
    assert len(found) == 1
    assert found[0].graph.m == 3


def test_template_validation():
    bad_intra = SearchSpec(
        max_vertices=3,
        contract=TRIANGLE_CONTRACT,
        template=TemplateSpec(layers=(LayerSpec("a", 3, intra="star"),)),
    )
    with pytest.raises(SearchSpecError, match="intra"):
        list(search_gadget(bad_intra))
    bad_link = SearchSpec(
        max_vertices=6,
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
        "pruned-cycle": 28028,
        "pruned-distance": 2056,
        "distance-t1-t2": 408,
        "pattern-000-infeasible": 336,
        "duplicates": 11,
        "emitted": 1,
    }
    assert funnel["not-cofacial"] == 0


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


def test_load_search_spec(tmp_path):
    import json

    spec = seed_search_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(search_spec_to_json_dict(spec)))
    assert load_search_spec(path) == spec


def test_certify_and_freeze_round_trip(tmp_path, seed_gadget):
    path = certify_and_freeze(seed_gadget, tmp_path / "frozen.json")
    back = load_gadget(path)
    assert back.graph == seed_gadget.graph
    assert back.contract.verified
    payload = load_gadget_payload(path)
    ver = payload["verification"]
    assert ver["digest"] == canonical_digest(seed_gadget.graph)
    assert ver["behavior"]["000"] is False
    assert ver["terminals_cofacial"] is True
    assert ver["exhaustive_counts"]["000"] == 0


def test_freeze_records_patterns_the_oracle_skipped(tmp_path, seed_gadget, triple_gadget):
    # the triple's 39 free vertices are past the brute-force guard, and no
    # two of its terminals are adjacent, so no pattern is cross-checked
    g, terminals = triple_gadget.graph, triple_gadget.terminals
    assert not any(g.has_edge(u, v) for u in terminals for v in terminals if u != v)
    path = certify_and_freeze(triple_gadget, tmp_path / "triple.json")
    ver = load_gadget_payload(path)["verification"]
    assert ver["oracle_skipped"] == ["000", "001", "010", "011", "012"]
    # the seed's 12 free vertices are all within it
    path = certify_and_freeze(seed_gadget, tmp_path / "seed.json")
    assert load_gadget_payload(path)["verification"]["oracle_skipped"] == []


def test_certify_and_freeze_refuses_a_failing_gadget(tmp_path):
    p3 = build_graph(3, [(0, 1), (1, 2)])
    gadget = TerminalGadget(
        p3, (0, 2), InterfaceContract(exact_terminal_distances=((0, 3), (3, 0)))
    )
    with pytest.raises(ContractError, match="refusing to freeze"):
        certify_and_freeze(gadget, tmp_path / "nope.json")
    assert not (tmp_path / "nope.json").exists()


def test_shrink_rejects_non_counterexamples():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(ContractError, match="5-cycle"):
        shrink_counterexample(c5)
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(ContractError, match="4-cycle"):
        shrink_counterexample(k4)
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ContractError, match="3-colorable"):
        shrink_counterexample(tri)


def test_shrink_keeps_a_tight_counterexample(final_graph):
    # a tiny budget: the point is the verified no-op path, not progress
    assert shrink_counterexample(final_graph, budget=1) == final_graph
