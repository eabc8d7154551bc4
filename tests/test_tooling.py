"""Checks on how the code is laid out.

The benchmark's tracer names the functions it wraps by module and
attribute.  A refactor that moves or renames one of them would break
``perfbench/run.py --trace 1`` at start-up; this catches it here, and
one op of each benchmark workload, run through its own gate, catches a
change to an entry point the workloads call.  The checker module must
import only the standard library, run from a copy of itself and share
no code with the solver, the planarity test or the census whose verdicts
it re-checks, and the case tree must close without calling the solver,
pasting a graph or measuring a distance; its checker shares no name with
the walk that grows the tree, only ``compositional_check`` walks a recipe
or runs that checker, and ``lemmas`` builds no graph but the seed.
Only ``gadgets._clauses`` forms a contract clause's name, only
``gadgets.py`` reads a contract's distance matrices, and no code
splits a check name to recover its kind.  Only the search holds its
stored colorings, and the shared clause checkers take no search state.
The report layer stays free of the analysis module, the
package free of ``assert`` statements, of a second, indenting JSON
writer and of a second JSON reader, and a bare ``import steinberg``
must load every module the tracer patches.  No command loads OpenSSL:
``hashlib`` is imported only where the interpreter lacks its built-in
SHA-256."""

import ast
import builtins
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
    encode,
    gadgets,
    load_seed_gadget,
    solve_3coloring_with_stats,
    terminal_behavior,
)
from steinberg.gadgets import seed_in_roles

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
    # so with that table computed first a solver, a paste or a distance
    # that refuses every call is never reached
    seed = load_seed_gadget()
    table = terminal_behavior(seed_in_roles(seed), frozenset())

    def refuse(what):
        def refused(*args, **kwargs):
            raise RuntimeError(f"the {what} ran")

        return refused

    monkeypatch.setattr(coloring, "_cdcl", refuse("solver"))
    monkeypatch.setattr(gadgets, "paste", refuse("paste"))
    monkeypatch.setattr(gadgets, "distance", refuse("distance"))
    with pytest.raises(RuntimeError, match="the solver ran"):
        terminal_behavior(seed, frozenset())
    assert compositional_check(table)["ok"]


def test_lemmas_builds_only_the_seed(monkeypatch):
    # the triple's clauses are derived, not measured: with the paste
    # refused, and the solver, BFS, the census and the planarity test
    # refused any graph but the 15-vertex seed and the small skeletons,
    # lemmas still passes every check
    seed = load_seed_gadget()

    def refuse(what, fn=None, allowed=lambda *args: False):
        def refused(*args, **kwargs):
            if not allowed(*args):
                raise RuntimeError(f"the {what} ran")
            return fn(*args, **kwargs)

        return refused

    monkeypatch.setattr(gadgets, "paste", refuse("paste"))
    monkeypatch.setattr(
        coloring, "_cdcl", refuse("solver", coloring._cdcl, lambda n, *_: n == 15)
    )
    for name in ("shortest_path", "forbidden_cycle_check", "is_planar"):
        monkeypatch.setattr(gadgets, name, refuse(
            name, getattr(gadgets, name), lambda g, *_: g.n <= 16
        ))
    assert gadgets.lemmas_report(seed).passed


def test_the_tree_checker_shares_no_names_with_the_walk():
    # check.case_tree_refutes and check.skeleton_facts re-derive what
    # walk_recipe derives; a helper of the walk's (pattern_of,
    # all_patterns, its closures) inside them, or in the check.py
    # functions they call, would check the walk with its own code
    module = ast.parse((PACKAGE / "gadgets.py").read_text())
    walk = next(n for n in module.body if getattr(n, "name", "") == "walk_recipe")
    helpers = {"walk_recipe"} | {
        n.func.id for n in ast.walk(walk)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    } | {n.name for n in ast.walk(walk) if isinstance(n, ast.FunctionDef)}
    helpers -= set(dir(builtins))
    assert {"pattern_of", "all_patterns", "closing_reason", "walk"} <= helpers
    defs = {
        node.name: node for node in ast.parse(CHECK.read_text()).body
        if hasattr(node, "name")
    }
    for name in ("case_tree_refutes", "skeleton_facts"):
        used = _names(defs[name])
        used |= set().union(*(_names(defs[n]) for n in used & set(defs)))
        assert not used & helpers, (name, sorted(used & helpers))


def test_only_compositional_check_walks_and_checks_a_recipe():
    # the seed, triple, final chain is listed once: every walk of a
    # recipe and every run of the tree checker in the package is made by
    # compositional_check, so each caller gets a checked proof
    callers = {"walk_recipe": set(), "case_tree_refutes": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if called in callers:
                        callers[called].add(getattr(top, "name", path.name))
    assert callers == {
        "walk_recipe": {"compositional_check"},
        "case_tree_refutes": {"compositional_check"},
    }


def _is_clause_name(text: str) -> bool:
    return (
        text == "forbidden-cycles"
        or text.startswith("distance-t")
        or text.endswith("-infeasible")
    )


def test_only_clauses_forms_a_contract_clause_name():
    # a contract's check names, kinds and order are stated once, in
    # gadgets._clauses; every other reader takes them from its list, and
    # none splits a name to recover the clause's kind
    formed, splits = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _is_clause_name(node.value)
                ):
                    formed.add((path.name, getattr(top, "name", None)))
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in ("split", "partition")
                    and node.args
                    and getattr(node.args[0], "value", None) == "-"
                ):
                    splits.append((path.name, node.lineno))
    assert formed == {("gadgets.py", "_clauses")}
    assert splits == []


def test_only_gadgets_reads_a_contract_distance_matrix():
    # what a distance clause asks is said once, in gadgets.py; the search
    # takes its distance floors from gadgets._clauses
    reads = sorted(
        (path.name, node.lineno)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("exact_terminal_distances", "min_terminal_distances")
    )
    assert reads and [read for read in reads if read[0] != "gadgets.py"] == []


def test_only_the_search_holds_its_stored_colorings_and_skipped_clauses():
    # the search's stored colorings, and the distance clauses it leaves
    # to its walk, are search state: only search.py names the cap, the
    # coloring and contract layers import nothing from it, and their
    # clause checkers take no parameter a search alone would pass
    named, imports, signatures = set(), [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if "_STORED_COLORINGS" in _names(tree):
            named.add(path.name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None) or ""]
                modules += [alias.name for alias in node.names]
                if any(m.rpartition(".")[2] == "search" for m in modules):
                    imports.append((path.name, node.lineno))
            if isinstance(node, ast.FunctionDef) and node.name in (
                "_coloring_check", "_measured", "first_failing_clause"
            ):
                args = node.args
                signatures[path.name, node.name] = [
                    a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                    args.vararg, args.kwarg) if a is not None
                ]
    assert named == {"search.py"}
    assert [i for i in imports if i[0] in ("coloring.py", "gadgets.py")] == []
    assert signatures == {
        ("coloring.py", "_coloring_check"): ["g", "fixing"],
        ("gadgets.py", "_measured"): ["gadget", "kind", "ask"],
        ("gadgets.py", "first_failing_clause"): ["gadget"],
    }


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


def test_hashlib_is_imported_only_as_the_digest_fallback():
    # hashlib loads OpenSSL's libcrypto; canon.py takes SHA-256 from the
    # interpreter's built-in module and names hashlib only in the except
    # clause that runs where that module is missing
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        fallback = {
            id(node)
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            for node in ast.walk(handler)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "hashlib" for name in names):
                where = "fallback" if id(node) in fallback else "import"
                found.append(f"{path.name}: hashlib {where}")
    assert found == ["canon.py: hashlib fallback"]


def test_verify_loads_no_openssl(tmp_path, final_graph):
    # python -m steinberg verify on the final graph, then a look at what
    # it loaded: _hashlib is the OpenSSL binding behind hashlib
    final = tmp_path / "final.g6"
    final.write_bytes(encode(final_graph, "graph6"))
    code = (
        "import runpy, sys\n"
        "sys.argv = ['steinberg', 'verify', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('steinberg', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
        "print('_hashlib' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(final)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    lines = out.stdout.splitlines()
    assert "overall: PASS" in lines[-3]
    assert lines[-2:] == ["exit 0", "False"]
