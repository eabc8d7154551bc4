import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
import zipfile

import pytest

from steinberg import (
    CertificateError,
    build_graph,
    canonical_digest,
    decode,
    encode,
    load_gadget,
    seed_data_path,
)
from steinberg import cli, stock
from steinberg.analysis import CycleCensus, is_planar, triangle_edge_conflicts
from steinberg.cli import main
from steinberg.formats import FORMAT_NAMES, parse_json_payload
from steinberg.graphs import MAX_VERTICES, remove_edge
from steinberg.search import search_spec_to_json_dict, seed_search_spec

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


def test_the_package_runs_as_a_module(tmp_path, final_graph):
    # python -m steinberg is the command line from a source checkout
    final = tmp_path / "g.g6"
    final.write_bytes(encode(final_graph, "graph6"))
    src = os.path.dirname(os.path.dirname(cli.__file__))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "steinberg", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )

    version = run("--version")
    assert version.returncode == 0 and version.stdout.strip()
    verify = run("verify", str(final))
    assert verify.returncode == 0, verify.stderr
    assert verify.stdout.rstrip().endswith("overall: PASS")
    missing = run("verify", str(tmp_path / "missing.g6"))
    assert missing.returncode == 2
    assert missing.stdout == ""
    assert [line[:7] for line in missing.stderr.splitlines()] == ["error: "]


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


@pytest.mark.parametrize("stage, n", [("seed", 15), ("triple", 42), ("final", 166)])
def test_build_json_is_a_gadget_but_for_the_final_graph(tmp_path, capsys, stage, n):
    path = tmp_path / f"{stage}.json"
    assert run_cli(capsys, "build", "--stage", stage, "--out", str(path))[0] == 0
    payload = parse_json_payload(path.read_bytes())
    assert payload["n"] == n
    assert ("terminals" in payload) == (stage != "final")


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
    (check,) = [
        c for c in json.loads(path.read_bytes())["checks"]
        if c["name"] == "not-3-colorable"
    ]
    assert check["verdict"] == "pass"
    assert check["details"] == {
        "solver_nodes": 1,
        "conflicts": 2,
        "proof_clauses": 1,
        "proof_literals": 1,
        "proof": "rup-checked",
    }


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
    "null-label.json": b'{"n": 2, "edges": [], "labels": {"0": null}}',
    "list-label.json": b'{"n": 2, "edges": [], "labels": {"1": [1, 2]}}',
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


_HUGE_SPEC = {
    "contract": {"min_terminal_distances": [[0, 1], [1, 0]]},
    "template": {"layers": [{"name": "t", "size": 2, "intra": "x" * 200_000}]},
}


_DEEP = b"[" * 100_000 + b"]" * 100_000

# inputs that name a huge value or nest deeply, each of which must end in
# one short error line and exit 2
HOSTILE_INPUTS = [
    pytest.param("verify", "long-line.col", b"x" * 1_000_000 + b"\n", id="line"),
    pytest.param("verify", "long-m.col", b"p edge 3 " + b"9" * 500_000 + b"\n",
                 id="digits"),
    pytest.param("verify", "n-list.json",
                 json.dumps({"n": list(range(100_000)), "edges": []}).encode(),
                 id="json"),
    pytest.param("search", "spec.json", json.dumps(_HUGE_SPEC).encode(), id="spec"),
    pytest.param("verify", "deep.json", _DEEP, id="deep-graph"),
    pytest.param("search", "deep-spec.json", b'{"contract": ' + _DEEP + b"}",
                 id="deep-spec"),
    pytest.param("verify", "nines.col", b"p edge " + b"9" * 4_000 + b" 0\n",
                 id="vertex-count"),
    pytest.param("verify", "nines.json",
                 b'{"n": 2, "edges": [[' + b"9" * 4_300 + b", 0]]}", id="endpoint"),
]


def _hostile_argv(tmp_path, command, name, data) -> list[str]:
    path = tmp_path / name
    path.write_bytes(data)
    extra = ["--out-dir", str(tmp_path / "out")] if command == "search" else []
    return [command, str(path), *extra]


@pytest.mark.parametrize("command, name, data", HOSTILE_INPUTS)
def test_an_error_line_quotes_a_huge_input_in_short(
    tmp_path, capsys, command, name, data
):
    # one short error line, not one as large as the input it names
    code, out, err = run_cli(capsys, *_hostile_argv(tmp_path, command, name, data))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) <= 200, err[:400]


@pytest.mark.parametrize("command, name, data", HOSTILE_INPUTS)
def test_a_hostile_input_ends_in_one_short_error_line_in_a_child(
    tmp_path, command, name, data
):
    # the whole process, not only main(): no traceback, whatever the
    # interpreter prints on its own, and exit 2
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "steinberg",
         *_hostile_argv(tmp_path, command, name, data)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (run.returncode, run.stdout) == (2, b""), run.stderr[-400:]
    assert b"Traceback" not in run.stderr
    assert run.stderr.startswith(b"error: ") and run.stderr.count(b"\n") == 1
    assert len(run.stderr) <= 200, run.stderr[:400]


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
    # the whole report with its durations stripped: each check's details
    # as written, the case tree's verdict, tables and witnesses too, and
    # its two walks (tree and closed_by) by the SHA-256 of their
    # sorted-key JSON, since they run to some 8 kB
    path = tmp_path / "lemmas.json"
    assert run_cli(capsys, "lemmas", "--json", str(path))[0] == 0
    doc = json.loads(path.read_text())
    for check in doc["checks"]:
        del check["duration_s"]
        assert check.pop("verdict") == "pass"
    tree = doc["checks"].pop()
    assert tree["name"] == "composition:case-tree"
    walks = {
        stage: {key: tree["details"][stage].pop(key) for key in ("tree", "closed_by")}
        for stage in ("triple_stage", "final_stage")
    }
    digest = hashlib.sha256(json.dumps(walks, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "2ecc19f8b14311b64837573db2424910cb6a5eaf0ad3e035be7911d663a38754"
    )
    assert tree["details"] == {
        "ok": True,
        "counterexample": None,
        "triple_stage": {
            "table": {
                "000": False, "001": True, "010": True, "011": True, "012": True,
            },
            "witnesses": {
                "001": {"a": 0, "b": 0, "c": 1, "d": 1, "e": 0, "f": 2},
                "010": {"a": 0, "b": 1, "c": 0, "d": 0, "e": 1, "f": 2},
                "011": {"a": 0, "b": 1, "c": 1, "d": 0, "e": 2, "f": 1},
                "012": {"a": 0, "b": 1, "c": 2, "d": 0, "e": 1, "f": 2},
            },
        },
        "final_stage": {"table": {"": False}, "witnesses": {}},
    }
    assert doc == {
        "overall": "pass",
        "target": {"canonical_digest": "3855c0a1d182d600", "m": 23, "n": 15},
        "tool_version": "0.1.0",
        "checks": [
            {"name": "seed:forbidden-cycles"},
            {"name": "seed:distance-t0-t1", "details": {"distance": 3}},
            {"name": "seed:distance-t0-t2", "details": {"distance": 3}},
            {"name": "seed:distance-t1-t2", "details": {"distance": 4}},
            {"name": "seed:pattern-000-infeasible", "details": {
                "solver_nodes": 2, "conflicts": 3, "proof_clauses": 2,
                "proof_literals": 4, "proof": "rup-checked",
            }},
            {"name": "seed:planarity", "details": {"faces": "euler-checked"}},
            {"name": "seed:all-equal-exhaustive-sweep", "details": {
                "assignments_swept": 531441, "extensions_found": 0,
            }},
            {"name": "seed:all-equal-brute-force",
             "details": {"oracle": "brute-force"}},
            {"name": "triple:forbidden-cycles"},
            {"name": "triple:distance-t0-t1", "details": {"distance": 4}},
            {"name": "triple:distance-t0-t2", "details": {"distance": 4}},
            {"name": "triple:distance-t1-t2", "details": {"distance": 4}},
            {"name": "triple:pattern-000-infeasible", "details": {
                "solver_nodes": 45, "conflicts": 12, "proof_clauses": 11,
                "proof_literals": 26, "proof": "rup-checked",
            }},
            {"name": "triple:planarity", "details": {"faces": "euler-checked"}},
        ],
    }


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


def test_wide_search_is_the_same_under_any_hash_seed(tmp_path):
    # the stock template with the bridges widened to subsets, searched to
    # exhaustion in two interpreters that hash strings differently: the
    # same funnel and, byte for byte, the packaged seed
    spec = search_spec_to_json_dict(seed_search_spec())
    for layer in spec["template"]["layers"]:
        if layer["name"] == "bridges":
            layer["link_kind"] = "subsets"
    spec_path = tmp_path / "wide.json"
    spec_path.write_text(json.dumps(spec))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    frozen = []
    for hash_seed in ("1", "2718"):
        out_dir = tmp_path / hash_seed
        run = subprocess.run(
            [sys.executable, "-m", "steinberg.cli", "search", str(spec_path),
             "--limit", "2", "--out-dir", str(out_dir)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-2:] == [
            "1 gadget(s) frozen",
            "funnel: enumerated 126, pruned-cycle 7746, pruned-distance 96,"
            " distance-t1-t2 68, pattern-000-infeasible 56, not-cofacial 0,"
            " duplicates 1, emitted 1",
        ]
        frozen.append((out_dir / "gadget-3855c0a1d182d600.json").read_bytes())
    assert frozen[0] == frozen[1] == seed_data_path().read_bytes()


def test_a_utf8_spec_is_read_whatever_the_locale(tmp_path):
    # the stock template with its ring renamed past ASCII, searched under
    # the C locale, where a file opened as text would be read as ASCII
    spec = search_spec_to_json_dict(seed_search_spec())
    for layer in spec["template"]["layers"]:
        for key in ("name", "link_to"):
            if layer[key] == "ring":
                layer[key] = "anneau-\u00e9"
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(json.dumps(spec, ensure_ascii=False).encode("utf-8"))
    out_dir = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "steinberg.cli", "search", str(spec_path),
         "--out-dir", str(out_dir)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0",
             "PYTHONCOERCECLOCALE": "0"},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert "1 gadget(s) frozen" in run.stdout.splitlines()
    assert [p.name for p in out_dir.iterdir()] == ["gadget-3855c0a1d182d600.json"]


def test_the_seed_loads_from_a_zipped_package(tmp_path):
    # the seed is read through importlib.resources, which reads it inside
    # the archive; no copy of it need exist on disk
    package = os.path.dirname(cli.__file__)
    archive = tmp_path / "steinberg.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for root, dirs, files in os.walk(package):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                path = os.path.join(root, name)
                zf.write(path, os.path.relpath(path, os.path.dirname(package)))
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, steinberg.cli as cli; print(cli.__file__);"
         " sys.exit(cli.main(['build', '--stage', 'seed']))"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(archive)},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    where, built = run.stdout.splitlines()
    assert where.startswith(str(archive))
    assert built == "stage seed: 15 vertices, 23 edges, digest 3855c0a1d182d600"


@pytest.mark.parametrize("given", [["spec.json", "--stock"], []])
def test_search_takes_a_spec_or_stock_never_both(tmp_path, capsys, given):
    # a spec given with --stock would be silently dropped
    out_dir = tmp_path / "out"
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in given]
    code, out, err = run_cli(capsys, "search", *argv, "--out-dir", str(out_dir))
    assert (code, out, err) == (2, "", "error: pass exactly one of a spec file or --stock\n")
    assert not out_dir.exists()


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


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_search_limit_below_one_is_a_usage_error(tmp_path, capsys, limit):
    # a limit of no finds would print "none found" and an empty funnel
    code, out, err = run_cli(
        capsys, "search", "--stock", "--limit", limit, "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert f"argument --limit: must be at least 1, got {limit}" in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("pattern, message", [
    pytest.param(0, "a forbidden pattern must be a string, got 0", id="number"),
    pytest.param(True, "a forbidden pattern must be a string, got True", id="bool"),
    pytest.param("0a", "forbidden pattern '0a' has a color other than 0, 1, 2",
                 id="letter"),
    pytest.param("0123", "forbidden pattern '0123' has a color other than 0, 1, 2",
                 id="fourth-color"),
])
def test_a_bad_forbidden_pattern_is_a_usage_error(
    tmp_path, capsys, monkeypatch, pattern, message
):
    # neither turned into its text nor read digit by digit, in a search
    # spec and in a gadget file alike
    spec = {
        "contract": {"forbidden_patterns": [pattern]},
        "template": {"layers": [{"name": "t", "size": 4, "intra": "path"}]},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "search", str(spec_path), "--out-dir", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: bad search spec: {message}\n")

    seed = json.loads(seed_data_path().read_text())
    seed["contract"]["forbidden_patterns"] = [pattern]
    seed_path = tmp_path / seed_data_path().name
    seed_path.write_text(json.dumps(seed))
    monkeypatch.setattr(stock, "seed_data_path", lambda: seed_path)
    code, out, err = run_cli(capsys, "lemmas")
    assert (code, out, err) == (
        2, "", f"error: frozen seed gadget unavailable: {message}\n"
    )


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("contract",), 5, "contract must be an object, got 5", id="contract"),
    pytest.param(("contract", "forbidden_patterns"), "000",
                 "forbidden_patterns must be a list, got '000'", id="patterns"),
    pytest.param(("contract", "exact_terminal_distances", 0), 5,
                 "a row of exact_terminal_distances must be a list, got 5", id="row"),
    pytest.param(("terminals",), 5, "terminals must be a list, got 5", id="terminals"),
    pytest.param(("verification",), [], "verification must be an object, got []",
                 id="verification"),
])
def test_a_wrongly_typed_json_field_is_a_usage_error(
    tmp_path, capsys, monkeypatch, path, value, message
):
    # one error line and exit 2, not a traceback, in a search spec and in
    # a gadget file alike; a spec has neither terminals nor a verification
    if path[0] == "contract":
        spec = {
            "contract": {"exact_terminal_distances": [[0, 3, 3], [3, 0, 4], [3, 4, 0]]},
            "template": {"layers": []},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(replace_at(spec, path, value)))
        code, out, err = run_cli(
            capsys, "search", str(spec_path), "--out-dir", str(tmp_path)
        )
        assert (code, out, err) == (2, "", f"error: bad search spec: {message}\n")

    seed = json.loads(seed_data_path().read_text())
    seed_path = tmp_path / seed_data_path().name
    seed_path.write_text(json.dumps(replace_at(seed, path, value)))
    monkeypatch.setattr(stock, "seed_data_path", lambda: seed_path)
    code, out, err = run_cli(capsys, "lemmas")
    assert (code, out, err) == (
        2, "", f"error: frozen seed gadget unavailable: {message}\n"
    )


@pytest.mark.parametrize("spec, message", [
    pytest.param([], "a search spec must be an object, got []", id="spec"),
    pytest.param({"template": {"layers": []}},
                 "contract must be an object, got None", id="no-contract"),
    pytest.param({"contract": {}, "template": {}},
                 "layers must be a list, got None", id="no-layers"),
    pytest.param({"contract": {}, "template": 5},
                 "template must be an object, got 5", id="template"),
    pytest.param({"contract": {}, "template": {"layers": 5}},
                 "layers must be a list, got 5", id="layers"),
    pytest.param({"contract": {}, "template": {"layers": [5]}},
                 "a layer must be an object, got 5", id="layer"),
    pytest.param({"contract": {}, "template": {"layers": [{"size": 3}]}},
                 "a layer name must be a string, got None", id="no-name"),
    pytest.param({"contract": {}, "template": {"layers": [{"name": "t"}]}},
                 "a layer size must be an integer, got None", id="no-size"),
])
def test_a_wrongly_shaped_search_spec_names_its_field(tmp_path, capsys, spec, message):
    # one error line naming the field and exit 2, not Python's own words
    # about subscripts and iteration
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "search", str(spec_path), "--out-dir", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: bad search spec: {message}\n")


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
        "error: bad JSON: an integer has more than"
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


def _run_capped(command, path, out_dir):
    """The command line on ``path`` in a child under a 1 GB address cap."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "steinberg.cli", command, str(path),
         *(["--out-dir", str(out_dir)] if command == "search" else [])],
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


def _spec(*layers: dict) -> bytes:
    return json.dumps({
        "contract": {"min_terminal_distances": [[0, 1], [1, 0]]},
        "template": {"layers": [{"name": "t", "size": 2}, *layers]},
    }).encode()


def _one_step_spec(target: int, layer: dict) -> bytes:
    return _spec(
        {"name": "ring", "size": target, "link_to": "t", "link_kind": "subsets"},
        {"name": "x", "link_to": "ring", **layer},
    )


# templates that need more than the search's budget of 1,048,576 held
# edges, each refused where it crosses it: while a layer's steps are
# listed, or while the walk holds candidates
_PAST_THE_BUDGET = {
    # one link step each of 720,720, about 1.96e9, 2^40 - 1 and 491,400
    # alternatives
    "4-pairs-of-12": ("listing layer 'x'", _one_step_spec(
        12, {"size": 4, "link_kind": "pairs"}
    )),
    "5-pairs-of-20": ("listing layer 'x'", _one_step_spec(
        20, {"size": 5, "link_kind": "pairs"}
    )),
    "subsets-of-40": ("listing layer 'x'", _one_step_spec(
        40, {"size": 1, "link_kind": "subsets"}
    )),
    # a path tells the four vertices apart, so their pairs come in every order
    "4-ordered-pairs-of-8": ("listing layer 'x'", _one_step_spec(
        8, {"size": 4, "intra": "path", "link_kind": "pairs"}
    )),
    # 200 steps of 65,535 alternatives, each step about 524,000 edges
    "many-small-steps": ("listing layer 'x'", _one_step_spec(
        16, {"size": 200, "link_kind": "subsets"}
    )),
    # the clique's own edges, about 800 million
    "one-large-clique": ("listing layer 'c'", _spec(
        {"name": "c", "size": 40_000, "intra": "clique"},
    )),
    # about 800 million 2-subsets of the large layer, for one vertex
    "pairs-over-a-large-layer": ("listing layer 'x'", _spec(
        {"name": "big", "size": 40_000},
        {"name": "x", "size": 1, "link_to": "big", "link_kind": "pairs"},
    )),
    # 3^17 candidates of about 10,000 edges each, none pruned
    "large-candidates": ("holding candidates", _spec(
        {"name": "hub", "size": 1, "link_to": "t", "link_kind": "subsets"},
        {"name": "x", "size": 10_000, "link_to": "hub", "link_kind": "subsets"},
        {"name": "y", "size": 17, "intra": "path", "link_to": "t",
         "link_kind": "subsets"},
    )),
}


@pytest.mark.parametrize("name", list(_PAST_THE_BUDGET))
def test_template_past_the_edge_budget_is_refused_before_allocating(tmp_path, name):
    where, data = _PAST_THE_BUDGET[name]
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    out = _run_capped("search", path, tmp_path / "out")
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == (
        "error: template holds more than 1048576 edges before its first"
        f" check ({where})\n"
    )
    # the output directory is made at the first find, so none is left
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_search_refuses_a_walk_with_too_many_candidates(tmp_path):
    # no step lists more than 63 alternatives and nothing is pruned, but
    # the 3^6 ring neighborhoods times 2,016 nondecreasing pairs of ring
    # subsets make about 1.5 million candidates of 11 to 26 edges, all
    # held at once to be sorted: far past the budget of 1,048,576 edges
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "contract": {"min_terminal_distances": [[0, 1], [1, 0]]},
        "template": {"layers": [
            {"name": "t", "size": 2},
            {"name": "ring", "size": 6, "intra": "cycle", "link_to": "t",
             "link_kind": "subsets"},
            {"name": "x", "size": 2, "link_to": "ring", "link_kind": "subsets"},
        ]},
    }))
    out = _run_capped("search", path, tmp_path)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == (
        "error: template holds more than 1048576 edges before its first"
        " check (holding candidates)\n"
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


def test_format_flags_take_every_format_name(tmp_path, capsys, c5_file):
    # the files end in .bin, so only the flags can name their formats
    names = {"g6": "graph6", "graph6": "graph6", "col": "dimacs",
             "dimacs": "dimacs", "json": "json"}
    assert FORMAT_NAMES == names
    c5 = decode(c5_file.read_bytes(), "graph6")
    for name, fmt in names.items():
        there = tmp_path / f"c5-{name}.bin"
        code, out, _ = run_cli(capsys, "convert", str(c5_file), str(there), "--to", name)
        assert (code, out) == (0, f"{c5_file} (graph6) -> {there} ({fmt})\n")
        assert there.read_bytes() == encode(c5, fmt)
        back = tmp_path / f"back-{name}.g6"
        code, out, _ = run_cli(capsys, "convert", str(there), str(back), "--from", name)
        assert (code, out) == (0, f"{there} ({fmt}) -> {back} (graph6)\n")
        assert back.read_bytes() == c5_file.read_bytes()

    code, out, _ = run_cli(capsys, "verify", str(tmp_path / "c5-col.bin"), "--format", "col")
    assert code == 1
    assert out.startswith(f"target: canonical_digest={canonical_digest(c5)}, m=5, n=5\n")
    code, out, err = run_cli(capsys, "convert", str(c5_file), str(tmp_path / "x.bin"),
                             "--to", "foo")
    assert (code, out) == (2, "")
    assert "argument --to: invalid choice: 'foo'" in err


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


K5_EDGES = [(i, j) for i in range(5) for j in range(i + 1, 5)]
K33_EDGES = [(i, j) for i in range(3) for j in range(3, 6)]

# the witnesses of the structural checks, exactly as `verify --json`
# writes them: a cycle in its canonical orientation, and a Kuratowski
# subgraph as its kind and its sorted edges
STRUCTURAL_WITNESSES = {
    "c4": (
        4, [(0, 1), (1, 2), (2, 3), (0, 3)],
        {"no-4-or-5-cycles": {"type": "cycle", "vertices": [0, 1, 2, 3]}},
    ),
    "k5": (
        5, K5_EDGES,
        {
            "planarity": {
                "type": "kuratowski",
                "kind": "K5",
                "edges": [list(e) for e in K5_EDGES],
            },
            "no-4-or-5-cycles": {"type": "cycle", "vertices": [0, 1, 2, 3]},
        },
    ),
    "k33": (
        6, K33_EDGES,
        {
            "planarity": {
                "type": "kuratowski",
                "kind": "K3,3",
                "edges": [list(e) for e in K33_EDGES],
            },
            "no-4-or-5-cycles": {"type": "cycle", "vertices": [0, 3, 1, 4]},
        },
    ),
}


@pytest.mark.parametrize("name", list(STRUCTURAL_WITNESSES))
def test_verify_json_writes_the_structural_witnesses(tmp_path, capsys, name):
    n, edges, expected = STRUCTURAL_WITNESSES[name]
    graph_path = tmp_path / f"{name}.g6"
    graph_path.write_bytes(encode(build_graph(n, edges), "graph6"))
    report_path = tmp_path / f"{name}.json"
    code, _, _ = run_cli(
        capsys, "verify", str(graph_path), "--json", str(report_path)
    )
    assert code == 1
    checks = json.loads(report_path.read_text())["checks"]
    got = {c["name"]: c["witness"] for c in checks if c["name"] in expected}
    assert got == expected
    assert all(c["verdict"] == "fail" for c in checks if c["name"] in expected)


# SHA-256 of `verify --json` with every check's `duration_s` line cut
# out, on the final graph and on each of its nine one-edge deletions (an
# edge of one of the triangles d-e-f, d'-e'-f' and b-c-c'); recorded
# before the digest, adjacency, face-tracing and planarity kernels were
# rewritten for speed, so every byte of each report is pinned
VERIFY_JSON_SHA256 = {
    "final": (
        "7239de55c8140eb70a4d6ed4b9689efd9906dcb99ea930e95b4f6864b0c5ee9c"
    ),
    "d-e": (
        "17a30e4c65efa5b11f8248c3e64f4ac8e21eac3a90ac24d57ea860e3ad59ad27"
    ),
    "d-f": (
        "ea2c5d81ad1844ee183ef99b7aaa47eac766195a5aa5a00195894917c8c900d6"
    ),
    "e-f": (
        "9fb32358c2c6f0bd50882964e06855e74af0664ec19b91130469b520afd7a6be"
    ),
    "d'-e'": (
        "34c72ec6ffef64934daaa56b3ea885a19fa3c74d6b38f1bd0433b090bf620e9f"
    ),
    "d'-f'": (
        "62636d9117dc4a968b15916c270f513dfab6b8baaea6f460d96938474cb26875"
    ),
    "e'-f'": (
        "d6e5bb11a9778047fb67d2e5bfb15324e5c06e8da7c4189b94308cae4535ed2c"
    ),
    "b-c": (
        "2030599bd4a9b366e85c099885e4ece8f7b4778ebbc90648aa64a4c723f91e58"
    ),
    "b-c'": (
        "4c473cce1ff08255e593bf62605a4a69ef01ad39ef5b13fd23aec46c85f1a034"
    ),
    "c-c'": (
        "b3e0520b5b41d209a4c3d068020270ec0df424451e20536232a82e03594442d6"
    ),
}


def _verify_json_sha256(capsys, tmp_path, g) -> str:
    graph_path = tmp_path / "g.g6"
    graph_path.write_bytes(encode(g, "graph6"))
    report_path = tmp_path / "report.json"
    run_cli(capsys, "verify", str(graph_path), "--json", str(report_path))
    lines = report_path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if b'"duration_s": ' not in line)
    return hashlib.sha256(kept).hexdigest()


def test_verify_json_bytes_are_pinned_on_the_final_graph_family(
    tmp_path, capsys, final_graph
):
    got = {"final": _verify_json_sha256(capsys, tmp_path, final_graph)}
    for key in list(VERIFY_JSON_SHA256)[1:]:
        u, v = (final_graph.vertex_by_label(name) for name in key.split("-"))
        got[key] = _verify_json_sha256(
            capsys, tmp_path, remove_edge(final_graph, u, v)
        )
    assert got == VERIFY_JSON_SHA256


# SHA-256 of what the planarity producer and the cycle census hand out:
# each rotation system, each obstruction's edges, the 3-, 4- and 5-cycle
# lists and `triangle_edge_conflicts`, as `repr` over a family of graphs;
# recorded before the refinement, left-right planarity and census
# kernels were rewritten for speed, so every list is pinned in its order
PRODUCER_SHA256 = {
    "final family": {
        "planarity": "ecf1f60dc1b5da70cf0ffd700ef50f59189cb9735ddd31a9476da4f950b5a449",
        "cycles": "58c13c3829df3116e7b5b43a2dbdd4b5751c80a32fc12871c95707691f1092ff",
        "conflicts": "3cb845f78f7c3bdce4b7d749b6039ee6a28da83e8d0fb07449397e05ae10800c",
    },
    "random": {
        "planarity": "a8863d653914019e15ffa776dc2c611b67d794fe54e0a20bab40b0219e6b7946",
        "cycles": "584e2cdcdf5a258d2c845b520567b4f0dcdaf1295321c3081b3d38d0e760e045",
        "conflicts": "9dbdac5946357ef16b1bd8d3e26f7a21549c572bef1a81beacddabfb3e80a268",
    },
}


def _apollonian(rng, n: int) -> list[tuple[int, int]]:
    """A random maximal planar graph: each new vertex goes into a face
    of the triangulation so far and is joined to its three corners."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return edges


def producer_pin_graphs():
    """Seeded random planar graphs (triangulations with a share of their
    edges deleted) and nonplanar ones (the same with random non-edges
    added), each relabeled by a random permutation."""
    out = []
    for seed in range(12):
        rng = random.Random(3900 + seed)
        n = rng.randrange(12, 40)
        edges = _apollonian(rng, n)
        rng.shuffle(edges)
        edges = edges[: len(edges) * rng.randrange(5, 11) // 10]
        if seed % 2:
            have = set(edges)
            target = len(edges) + rng.randrange(1, 4)
            while len(edges) < target:
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in have:
                    have.add((u, v))
                    edges.append((u, v))
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(build_graph(n, [(perm[u], perm[v]) for u, v in edges]))
    return out


def _producer_sha256(graphs) -> dict[str, str]:
    got: dict[str, list] = {"planarity": [], "cycles": [], "conflicts": []}
    for g in graphs:
        cert = is_planar(g)
        got["planarity"].append((cert.planar, cert.rotation, cert.obstruction_edges))
        census = CycleCensus(g, (3, 4, 5))
        got["cycles"].append((census[3], census[4], census[5]))
        got["conflicts"].append(triangle_edge_conflicts(g, census=census))
    return {
        key: hashlib.sha256(repr(value).encode()).hexdigest()
        for key, value in got.items()
    }


def test_planarity_and_census_outputs_are_pinned_on_the_final_graph_family(
    final_graph,
):
    family = [final_graph] + [
        remove_edge(final_graph, *(final_graph.vertex_by_label(v) for v in key.split("-")))
        for key in list(VERIFY_JSON_SHA256)[1:]
    ]
    assert _producer_sha256(family) == PRODUCER_SHA256["final family"]


def test_planarity_and_census_outputs_are_pinned_on_random_graphs():
    graphs = producer_pin_graphs()
    # both verdicts occur, and a nonplanar one within Euler's bound
    verdicts = [(is_planar(g).planar, g.m <= 3 * g.n - 6) for g in graphs]
    assert (True, True) in verdicts and (False, True) in verdicts
    assert _producer_sha256(graphs) == PRODUCER_SHA256["random"]
