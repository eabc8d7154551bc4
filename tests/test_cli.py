import json

import pytest

from steinberg import (
    VerificationReport,
    build_graph,
    canonical_digest,
    decode,
    encode,
    load_gadget,
    seed_data_path,
)
from steinberg.cli import main


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
    code, out, _ = run_cli(capsys, "verify", str(k4_file), "--oracle")
    assert code == 1
    assert "[PASS] not-3-colorable" in out


def test_verify_oracle_guard(tmp_path, capsys, final_graph):
    path = tmp_path / "g.g6"
    path.write_bytes(encode(final_graph, "graph6"))
    code, _, err = run_cli(capsys, "verify", str(path), "--oracle")
    assert code == 2
    assert "--oracle" in err


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
    # one contract run each for the seed and the triple, and two seed
    # digests: the load-time file-name check and the seed report's target
    from steinberg import canon, cli, gadgets, stock

    contracts = []
    digests = []

    def counting_verify(gadget, real=gadgets.verify_contract):
        contracts.append(gadget.graph.n)
        return real(gadget)

    def counting_digest(g, real=canon.canonical_digest):
        digests.append(g.n)
        return real(g)

    for module in (cli, gadgets):
        monkeypatch.setattr(module, "verify_contract", counting_verify)
    for module in (canon, cli, gadgets, stock):
        monkeypatch.setattr(module, "canonical_digest", counting_digest)
    assert run_cli(capsys, "lemmas")[0] == 0
    assert contracts == [15, 42]
    assert digests.count(15) == 2


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


def test_search_stock_writes_a_frozen_gadget(tmp_path, capsys, seed_gadget):
    code, out, _ = run_cli(
        capsys, "search", "--stock", "--limit", "1", "--out-dir", str(tmp_path)
    )
    assert code == 0
    digest = canonical_digest(seed_gadget.graph)
    frozen = tmp_path / f"gadget-{digest}.json"
    assert frozen.exists()
    assert load_gadget(frozen).contract.verified
    # the same file as the packaged seed, plus the newer oracle_skipped list
    packaged = json.loads(seed_data_path().read_text())
    packaged["verification"]["oracle_skipped"] = []
    text = json.dumps(packaged, indent=2, sort_keys=True) + "\n"
    assert frozen.read_bytes() == text.encode("ascii")
    assert out.splitlines()[-1] == (
        "funnel: enumerated 2, pruned-cycle 1490, pruned-distance 616,"
        " not-cofacial 0, duplicates 0, emitted 1"
    )


def test_search_spec_file_with_no_hits(tmp_path, capsys):
    spec = {
        "max_vertices": 3,
        "dedup": True,
        "contract": {
            "forbidden_cycle_lengths": [3],
            "exact_terminal_distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "forbidden_patterns": [],
            "require_planar": True,
            "verified": False,
        },
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys, "search", str(spec_path), "--limit", "5", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert "none found" in out


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


def test_shrink_rejects_non_counterexample(capsys, c5_file, tmp_path):
    code, _, err = run_cli(
        capsys, "shrink", str(c5_file), "--out", str(tmp_path / "s.g6")
    )
    assert code == 1
    assert "not a counterexample" in err
