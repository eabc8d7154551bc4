"""Checks on how the code is laid out.

The benchmark's tracer names the functions it wraps by module and
attribute.  A refactor that moves or renames one of them would break
``perfbench/run.py --trace 1`` at start-up; this catches it here, and
one op of each benchmark workload, run through its own gate, catches a
change to an entry point the workloads call.  The checker module must
import only the standard library, run from a copy of itself and share
no code with the solver, the planarity test or the census whose verdicts
it re-checks, and the case tree must close without calling the solver.
The report layer stays free of the analysis module, the
package free of ``assert`` statements, of a second, indenting JSON
writer and of a second JSON reader, and a bare ``import steinberg``
must load every module the tracer patches."""

import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from steinberg import (
    build_graph,
    coloring,
    compositional_check,
    load_seed_gadget,
    solve_3coloring_with_stats,
    terminal_behavior,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_in_its_home_module():
    tracing = _load_perfbench("tracing")
    assert tracing.TRACED
    for name, module_name, attr, _ in tracing.TRACED:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), name


def test_every_benchmark_workload_passes_its_gate(tmp_path):
    workloads = _load_perfbench("workloads")
    assert len(workloads.WORKLOADS) == 4
    for name, workload in workloads.WORKLOADS.items():
        scratch = tmp_path / name
        scratch.mkdir()
        bench = workload(1, scratch)
        key = bench.keys[0]
        assert bench.check(key, bench.op(key)) is None, name


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "steinberg"
CHECK = PACKAGE / "check.py"


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name used under ``tree``."""
    return {
        getattr(n, "id", getattr(n, "attr", getattr(n, "name", None)))
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def _shares_no_code_with_the_checker(file: str, names: set[str] | None) -> None:
    """``names`` in ``file`` (the whole module if None) use nothing that
    check.py defines, nor anything in ``file`` that calls into it."""
    checker = {
        node.name for node in ast.parse(CHECK.read_text()).body if hasattr(node, "name")
    }
    module = ast.parse((PACKAGE / file).read_text())
    defs = {node.name: node for node in module.body if hasattr(node, "name")}
    # what calls into the checker, such as
    # analysis.validate_planarity_certificate, is on its side too
    trusted = checker | {n for n, node in defs.items() if _names(node) & checker}
    scopes = {file: module} if names is None else {n: defs[n] for n in names}
    for name, scope in scopes.items():
        assert not _names(scope) & trusted, (name, sorted(_names(scope) & trusted))


def test_proof_checker_imports_only_the_standard_library():
    # the hinted-proof check and the certificate checks in check.py must
    # run on their own when copied out of the package
    tree = ast.parse(CHECK.read_text())
    froms = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert all(n.level == 0 for n in froms), "relative import in check.py"
    imported = [n.module for n in froms] + [
        a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names
    ]
    assert all(m.split(".")[0] in sys.stdlib_module_names for m in imported), imported


def test_planarity_producer_shares_no_code_with_its_checker():
    # a certificate is only evidence if the checker does not reuse the
    # code that produced it
    _shares_no_code_with_the_checker(
        "analysis.py",
        {"_LeftRight", "_kernel", "_kuratowski_edges", "is_planar", "_cycle_dfs"},
    )


def test_solver_and_census_share_no_code_with_the_checker():
    # nor may the solver whose refutations it replays, or the census
    # whose canonical forms it recomputes
    _shares_no_code_with_the_checker(
        "coloring.py", {"_cdcl", "solve_3coloring_with_stats"}
    )
    _shares_no_code_with_the_checker("canon.py", None)


def test_the_case_tree_runs_without_the_solver(monkeypatch):
    # compositional_check derives both stages from the seed table alone,
    # so with that table computed first a solver that refuses every call
    # is never reached
    seed = load_seed_gadget()
    table = terminal_behavior(seed, frozenset())

    def refuse(*args, **kwargs):
        raise RuntimeError("the solver ran")

    monkeypatch.setattr(coloring, "_cdcl", refuse)
    with pytest.raises(RuntimeError, match="the solver ran"):
        terminal_behavior(seed, frozenset())
    assert compositional_check(seed, table)["ok"]


def test_the_checker_runs_from_a_copy_of_itself(tmp_path):
    # python -I -S reads neither PYTHONPATH nor site-packages, so the copy
    # runs on the standard library alone; it reads graphs and
    # certificates by attribute, so plain namespaces stand in for them,
    # and takes hinted steps after a JSON round trip, hints as lists
    shutil.copy(CHECK, tmp_path)
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    _, stats = solve_3coloring_with_stats(build_graph(4, k4))
    k5 = [[i, j] for i in range(5) for j in range(i + 1, 5)]
    code = (
        "import json, sys\n"
        "from types import SimpleNamespace\n"
        "sys.path.insert(0, '')\n"
        "from check import hints_refute, planarity_certificate_kind\n"
        "k4, steps, k5 = json.load(sys.stdin)\n"
        "g = SimpleNamespace(n=5, edges=k5, has_edge=lambda u, v: [u, v] in k5)\n"
        "cert = SimpleNamespace(planar=False, obstruction_edges=k5)\n"
        "print(hints_refute(4, k4, {0: 0}, steps))\n"
        "print(hints_refute(4, k4, {0: 0}, steps[1:]))\n"
        "print(planarity_certificate_kind(g, cert))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        cwd=tmp_path,
        input=json.dumps([k4, stats.steps, k5]),
        capture_output=True,
        text=True,
        check=True,
    )
    assert stats.steps and out.stdout.split() == ["True", "False", "K5"]


def test_report_imports_nothing_from_analysis():
    # check bodies hand reports their witnesses as JSON values, so the
    # report layer needs none of the objects the checks inspect
    tree = ast.parse((PACKAGE / "report.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            assert module not in (".analysis", "steinberg.analysis"), module
            if module in (".", "steinberg"):
                assert "analysis" not in [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            assert "steinberg.analysis" not in [a.name for a in node.names]


def test_the_package_has_no_assert_statement():
    # python -O strips assert statements, so a check the package needs
    # must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_call_in_the_package_indents_through_json():
    # json.dumps runs its pure-Python encoder whenever indent is set;
    # formats.dump_json is the one indented writer
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("dump", "dumps")
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == []


def test_formats_parse_json_payload_is_the_one_json_reader():
    # it decodes UTF-8 whatever the locale and turns every decode error
    # into a FormatError; a second json.load(s) would do neither for sure,
    # and read_text decodes by the locale
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = {a.name for a in node.names} & {"load", "loads"}
                found += [f"{path.name}: from json import {n}" for n in sorted(names)]
            elif isinstance(func, ast.Attribute) and (
                func.attr == "read_text"
                or func.attr in ("load", "loads")
                and getattr(func.value, "id", None) == "json"
            ):
                where = scope.get(id(node), "<module>")
                found.append(f"{path.name}: {func.attr} in {where}")
    assert found == ["formats.py: loads in parse_json_payload"]


def test_importing_the_package_loads_every_traced_module():
    # the tracer patches only the modules already loaded when it takes its
    # snapshot of sys.modules, so a set-up span (a paste, a build, the
    # set-up digest) reads 0 unless ``import steinberg`` loads them all.
    # The cli is the exception: no workload calls it in set-up, and the
    # tracer's own import has loaded it before the first op is traced
    tracing = _load_perfbench("tracing")
    homes = sorted({module_name for _, module_name, _, _ in tracing.TRACED})
    homes.remove("steinberg.cli")
    code = (
        "import sys, steinberg\n"
        "print(' '.join(m for m in sys.modules if m.startswith('steinberg')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    loaded = set(out.stdout.split())
    assert [m for m in homes if m not in loaded] == []
