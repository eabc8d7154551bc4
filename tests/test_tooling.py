"""Checks on how the code is laid out.

The benchmark's tracer names the functions it wraps by module and
attribute.  A refactor that moves or renames one of them would break
``perfbench/run.py --trace 1`` at start-up; this catches it here, and
one op of each benchmark workload, run through its own gate, catches a
change to an entry point the workloads call.  The proof checker must
stay free of package imports."""

import ast
import importlib
import importlib.util
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


PROOF = Path(__file__).resolve().parent.parent / "src" / "steinberg" / "proof.py"


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
