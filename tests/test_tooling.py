"""Checks on how the code is laid out.

The benchmark's tracer names the functions it wraps by module and
attribute.  A refactor that moves or renames one of them would break
``perfbench/run.py --trace 1`` at start-up; this catches it here, and
one op of each benchmark workload, run through its own gate, catches a
change to an entry point the workloads call.  The proof checker must
stay free of package imports, the report layer free of the analysis
module, and the package free of ``assert`` statements and of a second,
indenting JSON writer.  The planarity test must share no code with the
certificate checker that re-checks its verdicts, and a bare ``import
steinberg`` must load every module the tracer patches."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
PROOF = PACKAGE / "proof.py"


def test_proof_checker_imports_only_the_standard_library():
    # the RUP replay must share no code with the solver it checks, and
    # must run on its own when copied out of the package
    tree = ast.parse(PROOF.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in proof.py"
            imported.append(node.module)
    for name in imported:
        top = name.split(".")[0]
        assert top != "steinberg"
        assert top in sys.stdlib_module_names, name


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


def test_planarity_producer_shares_no_code_with_its_checker():
    # a certificate is only evidence if the checker does not reuse the
    # code that produced it; the checker alone names an obstruction's kind
    producer = {"is_planar", "_kuratowski_edges", "_kernel", "_LeftRight"}
    checker = {
        "validate_planarity_certificate",
        "_smooth_subdivision",
        "_trace_faces",
        "_component_roots",
    }
    tree = ast.parse((PACKAGE / "analysis.py").read_text())
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert producer <= set(defs) and checker <= set(defs)
    for name in sorted(producer):
        used = {
            getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(defs[name])
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert not used & checker, (name, sorted(used & checker))


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
