import json
import os
import resource
import subprocess
import sys
import time

import pytest

from steinberg import (
    CertificateError,
    VerificationReport,
    build_graph,
    canonical_digest,
    decode,
    encode,
    load_gadget,
    seed_data_path,
)
from steinberg import cli
from steinberg.cli import main
from steinberg.graphs import MAX_VERTICES

from support import deep_template_spec, replace_at


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def k4_file(tmp_path):
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.g6"
    path.write_bytes(encode(k4, "graph6"))
    return path


@pytest.fixture()
def c5_file(tmp_path):
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    path = tmp_path / "c5.g6"
    path.write_bytes(encode(c5, "graph6"))
    return path


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip()


def test_no_command_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_build_seed_stage(tmp_path, capsys, seed_gadget):
    out_path = tmp_path / "g1.json"
    code, out, _ = run_cli(capsys, "build", "--stage", "g1", "--out", str(out_path))
    assert code == 0
    assert "15 vertices, 23 edges" in out
    gadget = load_gadget(out_path)
    assert gadget.graph == seed_gadget.graph


def test_build_final_stage_and_formats(tmp_path, capsys, final_graph):
    out_path = tmp_path / "g.g6"
    code, out, _ = run_cli(capsys, "build", "--out", str(out_path))
    assert code == 0
    assert "166 vertices, 300 edges" in out
    assert decode(out_path.read_bytes(), "graph6").edges == final_graph.edges

    col = tmp_path / "g2.col"
    code, out, _ = run_cli(capsys, "build", "--stage", "g2", "--out", str(col))
    assert code == 0
    assert decode(col.read_bytes(), "dimacs").n == 42


def test_verify_counterexample_fails_on_k4(capsys, k4_file):
    code, out, _ = run_cli(capsys, "verify", str(k4_file))
    assert code == 1
    assert "[FAIL] no-4-or-5-cycles" in out
    assert "[PASS] not-3-colorable" in out
    assert "[FAIL] no-adjacent-triangles" in out
    assert out.rstrip().endswith("overall: FAIL")


def test_verify_fails_on_c5(capsys, c5_file):
    code, out, _ = run_cli(capsys, "verify", str(c5_file))
    assert code == 1
    assert "[FAIL] not-3-colorable" in out
    assert '"coloring"' in out


def test_verify_oracle_flag(capsys, k4_file):
    # --oracle is gone: every UNSAT verdict replays its proof instead, so
    # the flag is unknown even on a graph small enough for brute force
    code, out, err = run_cli(capsys, "verify", str(k4_file), "--oracle")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --oracle" in err


def test_verify_oracle_guard(tmp_path, capsys, final_graph):
    # past the old 25-vertex guard the flag is refused before any work
    path = tmp_path / "g.g6"
    path.write_bytes(encode(final_graph, "graph6"))
    code, out, err = run_cli(capsys, "verify", str(path), "--oracle")
    assert code == 2
    assert out == ""
    assert "--oracle" in err


def test_verify_details_name_the_coloring_cross_check(tmp_path, capsys, k4_file):
    # the report says the solver's refutation was replayed, with its size
    path = tmp_path / "k4.json"
    code, _, _ = run_cli(capsys, "verify", str(k4_file), "--json", str(path))
    assert code == 1
    check = VerificationReport.from_json_bytes(path.read_bytes()).check(
        "not-3-colorable"
    )
    assert check.passed
    assert check.details == {
        "solver_nodes": 1,
        "conflicts": 2,
        "proof_clauses": 1,
        "proof_literals": 1,
        "proof": "rup-checked",
    }


def test_verify_report_json_round_trips(tmp_path, capsys, k4_file):
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", str(k4_file), "--json", str(report_path))
    assert code == 1
    report = VerificationReport.from_json_bytes(report_path.read_bytes())
    assert not report.passed
    assert report.to_json_bytes() == report_path.read_bytes()
    assert report.target["n"] == 4


def _report_without_durations(path):
    report = json.loads(path.read_text())
    for check in report["checks"]:
        check.pop("duration_s")
    return report


def test_verify_is_deterministic_apart_from_durations(tmp_path, capsys, k4_file):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert run_cli(capsys, "verify", str(k4_file), "--json", str(p))[0] == 1
    reports = [_report_without_durations(p) for p in paths]
    assert reports[0] == reports[1]


def test_ignored_jobs_flag_keeps_exit_codes_and_reports(
    tmp_path, capsys, k4_file, c5_file
):
    # --jobs is accepted and ignored, so old command lines behave as before
    for graph_file in (k4_file, c5_file):
        runs = []
        for extra in ((), ("--jobs", "2")):
            path = tmp_path / f"{graph_file.stem}-{len(extra)}.json"
            code, _, _ = run_cli(
                capsys, "verify", str(graph_file), "--json", str(path), *extra
            )
            runs.append((code, _report_without_durations(path)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1
    assert run_cli(capsys, "lemmas", "--jobs", "1")[0] == 0
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0 and "--jobs" not in out


def test_verify_accepts_gadget_payloads(tmp_path, capsys, seed_gadget):
    gadget_path = tmp_path / "g1.json"
    assert run_cli(capsys, "build", "--stage", "g1", "--out", str(gadget_path))[0] == 0
    code, out, _ = run_cli(capsys, "verify", str(gadget_path))
    assert code == 1  # the seed gadget alone is 3-colorable
    assert "[FAIL] not-3-colorable" in out
    assert canonical_digest(seed_gadget.graph) in out


def test_verify_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.g6"))
    assert code == 2

    junk = tmp_path / "junk.g6"
    junk.write_bytes(b"not a graph")
    code, _, err = run_cli(capsys, "verify", str(junk))
    assert code == 2
    assert "byte offset" in err

    unknowable = tmp_path / "graph.xyz"
    unknowable.write_bytes(b"")
    code, _, err = run_cli(capsys, "verify", str(unknowable))
    assert code == 2
    assert "format" in err


_MALFORMED_INPUTS = {
    "duplicate.col": b"p edge 2 2\ne 1 2\ne 1 2\n",
    "loop.col": b"p edge 2 1\ne 1 1\n",
    "duplicate.json": b'{"n": 2, "edges": [[0, 1], [0, 1]]}',
    "out-of-range.json": b'{"n": 2, "edges": [[0, 2]]}',
    "negative-n.json": b'{"n": -1, "edges": []}',
    "unknown-label.json": b'{"n": 1, "edges": [], "labels": {"3": "x"}}',
    "text-n.json": b'{"n": "x", "edges": []}',
    "float-n.json": b'{"n": 2.9, "edges": [[0, 1]]}',
    "bool-n.json": b'{"n": true, "edges": []}',
    "float-endpoint.json": b'{"n": 2, "edges": [[0, 1.7]]}',
    "underscore-label.json": b'{"n": 12, "edges": [], "labels": {"1_0": "x"}}',
    "space-label.json": b'{"n": 4, "edges": [], "labels": {" 3": "x"}}',
    "plus-label.json": b'{"n": 4, "edges": [], "labels": {"+3": "x"}}',
    "huge-n.json": b'{"n": ' + b"9" * 5000 + b', "edges": []}',
    "directory.g6": None,
}


@pytest.mark.parametrize("name", list(_MALFORMED_INPUTS))
@pytest.mark.parametrize("command", ["verify", "convert"])
def test_malformed_input_is_an_input_error(tmp_path, capsys, command, name):
    # exit 2 with one error line; an uncaught exception would fail here
    path = tmp_path / name
    data = _MALFORMED_INPUTS[name]
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    extra = [str(tmp_path / "out.g6")] if command == "convert" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lemmas(capsys):
    code, out, _ = run_cli(capsys, "lemmas")
    assert code == 0
    for fragment in (
        "seed:forbidden-cycles",
        "seed:all-equal-exhaustive-sweep",
        "seed:all-equal-brute-force",
        "triple:pattern-000-infeasible",
        "composition:case-tree",
    ):
        assert f"[PASS] {fragment}" in out
    assert out.rstrip().endswith("overall: PASS")


def test_lemmas_checks_the_seed_contract_once(monkeypatch, capsys):
    # one contract report, the seed's (the triple's clauses run without
    # one), and two seed digests: the load-time file-name check and the
    # seed report's target; the triple is never digested
    from steinberg import canon, cli, gadgets, stock

    contracts = []
    digests = []

    def counting_verify(gadget, real=gadgets.verify_contract):
        contracts.append(gadget.graph.n)
        return real(gadget)

    def counting_digest(g, real=canon.canonical_digest):
        digests.append(g.n)
        return real(g)

    monkeypatch.setattr(gadgets, "verify_contract", counting_verify)
    for module in (canon, cli, gadgets, stock):
        monkeypatch.setattr(module, "canonical_digest", counting_digest)
    assert run_cli(capsys, "lemmas")[0] == 0
    assert contracts == [15]
    assert digests.count(15) == 2
    assert 42 not in digests


def test_lemmas_json_lists_the_fifteen_checks_in_order(tmp_path, capsys):
    path = tmp_path / "lemmas.json"
    code, _, _ = run_cli(capsys, "lemmas", "--json", str(path))
    assert code == 0
    checks = json.loads(path.read_text())["checks"]
    assert [c["name"] for c in checks] == [
        "seed:forbidden-cycles",
        "seed:distance-t0-t1",
        "seed:distance-t0-t2",
        "seed:distance-t1-t2",
        "seed:pattern-000-infeasible",
        "seed:planarity",
        "seed:all-equal-exhaustive-sweep",
        "seed:all-equal-brute-force",
        "triple:forbidden-cycles",
        "triple:distance-t0-t1",
        "triple:distance-t0-t2",
        "triple:distance-t1-t2",
        "triple:pattern-000-infeasible",
        "triple:planarity",
        "composition:case-tree",
    ]
    assert all(c["verdict"] == "pass" for c in checks)
    sweep = next(c for c in checks if c["name"] == "seed:all-equal-exhaustive-sweep")
    assert sweep["details"] == {"assignments_swept": 531441, "extensions_found": 0}


def test_search_stock_writes_a_frozen_gadget(tmp_path, capsys, seed_gadget):
    code, out, _ = run_cli(
        capsys, "search", "--stock", "--limit", "1", "--out-dir", str(tmp_path)
    )
    assert code == 0
    digest = canonical_digest(seed_gadget.graph)
    frozen = tmp_path / f"gadget-{digest}.json"
    assert load_gadget(frozen) == seed_gadget
    # byte for byte the packaged seed
    assert frozen.read_bytes() == seed_data_path().read_bytes()
    assert out.splitlines()[-1] == (
        "funnel: enumerated 2, pruned-cycle 1256, pruned-distance 96,"
        " not-cofacial 0, duplicates 0, emitted 1"
    )


def test_search_spec_file_with_no_hits(tmp_path, capsys):
    # the only candidate is the triangle, which is a forbidden 3-cycle
    spec = {
        "contract": {
            "forbidden_cycle_lengths": [3],
            "exact_terminal_distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "forbidden_patterns": [],
            "require_planar": True,
        },
        "template": {"layers": [{"name": "t", "size": 3, "intra": "clique"}]},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys, "search", str(spec_path), "--limit", "5", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert "none found" in out


def test_search_max_vertices_is_an_unknown_option(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "search", "--stock", "--max-vertices", "15", "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "unrecognized arguments: --max-vertices" in err


def test_search_spec_without_a_template_is_a_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"contract": {"forbidden_cycle_lengths": [3]}}))
    code, out, err = run_cli(
        capsys, "search", str(spec_path), "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert err == "error: bad search spec: a spec needs a template\n"


def test_search_spec_with_no_layers_is_a_usage_error(tmp_path, capsys):
    spec = {
        "contract": {"exact_terminal_distances": [[0, 1], [1, 0]]},
        "template": {"layers": []},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _, err = run_cli(
        capsys, "search", str(spec_path), "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "no layers" in err


@pytest.mark.parametrize("path, value", [
    pytest.param(("template", "layers", 0, "size"), 3.7, id="layer-size"),
    pytest.param(("contract", "exact_terminal_distances", 0, 1), 3.5, id="distance"),
    pytest.param(("contract", "forbidden_cycle_lengths", 0), 4.9, id="cycle-length"),
])
def test_search_spec_with_a_non_integer_is_a_usage_error(tmp_path, capsys, path, value):
    # JSON floats and booleans are refused, never truncated to an integer
    spec = {
        "contract": {
            "forbidden_cycle_lengths": [3],
            "exact_terminal_distances": [[0, 1], [1, 0]],
        },
        "template": {"layers": [{"name": "t", "size": 2}]},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(replace_at(spec, path, value)))
    code, out, err = run_cli(capsys, "search", str(spec_path), "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "must be an integer" in err


@pytest.mark.parametrize("path", [
    pytest.param(("contract", "require_planar"), id="require-planar"),
])
def test_search_spec_with_a_non_boolean_flag_is_a_usage_error(tmp_path, capsys, path):
    # "false" is a string, not JSON false, and is refused rather than truthy
    spec = {
        "contract": {"forbidden_cycle_lengths": [3]},
        "template": {"layers": [{"name": "t", "size": 2}]},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(replace_at(spec, path, "false")))
    code, out, err = run_cli(capsys, "search", str(spec_path), "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert f"{path[-1]} must be true or false" in err


@pytest.mark.parametrize("field", ["name", "intra", "link_to", "link_kind"])
def test_search_spec_with_a_non_string_layer_field_is_a_usage_error(
    tmp_path, capsys, field
):
    # a list is refused, neither hashed nor turned into its text
    spec = {
        "contract": {"min_terminal_distances": [[0, 1], [1, 0]]},
        "template": {"layers": [
            {"name": "t", "size": 2},
            {"name": "x", "size": 1, "link_to": "t", "link_kind": "subsets"},
        ]},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(replace_at(spec, ("template", "layers", 1, field), ["t"])))
    code, out, err = run_cli(capsys, "search", str(spec_path), "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be a string, got ['t']" in err


def test_search_spec_with_an_oversized_integer_is_a_usage_error(tmp_path, capsys):
    # past the interpreter's 4,300-digit limit for integer conversion
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"contract": {"forbidden_cycle_lengths": [' + "9" * 5000 + "]}}"
    )
    code, out, err = run_cli(capsys, "search", str(spec_path), "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: bad search spec JSON: an integer has more than"
        f" {sys.get_int_max_str_digits()} digits\n"
    )
    # the interpreter's own advice names a call no command line can make
    assert "set_int_max_str_digits" not in err


def test_verify_json_with_an_oversized_integer_names_the_limit(tmp_path, capsys):
    path = tmp_path / "huge-n.json"
    path.write_bytes(_MALFORMED_INPUTS["huge-n.json"])
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: bad JSON: an integer has more than"
        f" {sys.get_int_max_str_digits()} digits\n"
    )
    assert "set_int_max_str_digits" not in err


def _huge_search_spec() -> bytes:
    spec = deep_template_spec()
    spec["template"]["layers"][-1]["size"] = 10**11
    return json.dumps(spec).encode()


# declared sizes far past the vertex cap, each refused before any memory
# is spent per vertex
_HUGE_DECLARED_SIZES = {
    "huge.json": ("verify", b'{"n": 100000000000, "edges": []}'),
    "huge.col": ("verify", b"p edge 100000000000 0\n"),
    "huge-spec.json": ("search", _huge_search_spec()),
}


def _cap_address_space():
    # in the child only: if a size were acted on before it is checked,
    # the child dies of a MemoryError here instead of filling the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_capped(command, path, tmp_path):
    """The command line on ``path`` in a child under a 1 GB address cap."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "steinberg.cli", command, str(path),
         *(["--out-dir", str(tmp_path)] if command == "search" else [])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_cap_address_space,
        timeout=60,
    )


@pytest.mark.parametrize("name", list(_HUGE_DECLARED_SIZES))
def test_huge_declared_size_is_refused_before_allocating(tmp_path, name):
    command, data = _HUGE_DECLARED_SIZES[name]
    path = tmp_path / name
    path.write_bytes(data)
    out = _run_capped(command, path, tmp_path)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert str(MAX_VERTICES) in out.stderr


def _one_step_spec(target: int, layer: dict) -> bytes:
    return json.dumps({
        "contract": {"min_terminal_distances": [[0, 1], [1, 0]]},
        "template": {"layers": [
            {"name": "t", "size": 2},
            {"name": "ring", "size": target, "link_to": "t", "link_kind": "subsets"},
            {"name": "x", "link_to": "ring", **layer},
        ]},
    }).encode()


# one link step each whose alternatives would be listed before the walk
_OVERSIZED_STEPS = {
    "4-pairs-of-12": _one_step_spec(12, {"size": 4, "link_kind": "pairs"}),
    "5-pairs-of-20": _one_step_spec(20, {"size": 5, "link_kind": "pairs"}),
    "subsets-of-40": _one_step_spec(40, {"size": 1, "link_kind": "subsets"}),
}


@pytest.mark.parametrize("name", list(_OVERSIZED_STEPS))
def test_oversized_template_step_is_refused_before_allocating(tmp_path, name):
    # 720,720, about 1.96e9 and 2^40 - 1 alternatives, against a cap of
    # 65,536 a step
    path = tmp_path / "spec.json"
    path.write_bytes(_OVERSIZED_STEPS[name])
    out = _run_capped("search", path, tmp_path)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == (
        "error: layer 'x' has a link step of more than 65536 alternatives\n"
    )


@pytest.mark.parametrize("arity", [1, 5])
def test_search_refuses_a_contract_it_cannot_freeze(tmp_path, capsys, monkeypatch, arity):
    # a find is frozen with its behavior table, which needs 2 to 4
    # terminals, so the spec is refused before the walk starts
    def no_walk(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "search_gadget", no_walk)
    floors = [[0 if i == j else 1 for j in range(arity)] for i in range(arity)]
    spec = {
        "contract": {"min_terminal_distances": floors},
        "template": {"layers": [{"name": "t", "size": arity}]},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "search", str(spec_path), "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: search freezes gadgets with 2 to 4 terminals; the contract"
        f" has {arity}\n"
    )


def test_search_walks_a_deep_template(tmp_path, capsys):
    # 1,201 link steps, each a level of the walk
    spec_path = tmp_path / "deep.json"
    spec_path.write_text(json.dumps(deep_template_spec()))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "search", str(spec_path), "--out-dir", str(tmp_path))
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert "1 gadget(s) frozen" in out
    assert len(list(tmp_path.glob("gadget-*.json"))) == 1
    assert elapsed < 10


def test_build_falls_back_to_the_search_only_when_asked(monkeypatch, capsys):
    # without the packaged seed, build is an input error and runs no
    # search; --search is an unknown flag
    def missing_seed():
        raise CertificateError("no seed file")

    monkeypatch.setattr(cli, "load_seed_gadget", missing_seed)
    code, out, err = run_cli(capsys, "build", "--stage", "final")
    assert code == 2
    assert out == ""
    assert err == "error: frozen seed gadget unavailable: no seed file\n"
    code, _, err = run_cli(capsys, "build", "--stage", "final", "--search")
    assert code == 2
    assert "unrecognized arguments: --search" in err


def test_convert_round_trip(tmp_path, capsys, c5_file):
    col = tmp_path / "c5.col"
    code, out, _ = run_cli(capsys, "convert", str(c5_file), str(col))
    assert code == 0
    assert col.read_bytes().startswith(b"p edge 5 5")
    back = tmp_path / "back.g6"
    assert run_cli(capsys, "convert", str(col), str(back))[0] == 0
    assert back.read_bytes() == c5_file.read_bytes()


def test_convert_unknown_extension(tmp_path, capsys, c5_file):
    code, _, err = run_cli(capsys, "convert", str(c5_file), str(tmp_path / "out.xyz"))
    assert code == 2
    assert "format" in err


def test_shrink_is_an_unknown_subcommand(capsys, c5_file):
    code, _, err = run_cli(capsys, "shrink", str(c5_file))
    assert code == 2
    assert "invalid choice" in err and "shrink" in err


def test_verify_six_disjoint_seven_cycles(tmp_path, capsys):
    # planar, no 4- or 5-cycles, 3-colorable, and an automorphism group
    # of order 14^6 * 6!, which the canonical digest must not enumerate
    g = build_graph(
        42, [(7 * c + i, 7 * c + (i + 1) % 7) for c in range(6) for i in range(7)]
    )
    path = tmp_path / "cycles.g6"
    path.write_bytes(encode(g, "graph6"))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert f"canonical_digest={canonical_digest(g)}" in out
    assert "[PASS] planarity" in out
    assert "[PASS] no-4-or-5-cycles" in out
    assert "[FAIL] not-3-colorable" in out
