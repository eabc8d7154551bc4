"""Checks on how the code is laid out.

The benchmark's tracer names the functions it wraps by module and
attribute.  A refactor that moves or renames one of them would break
``perfbench/run.py --trace 1`` at start-up; this catches it here.  The
proof checker must stay free of package imports."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves_in_its_home_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name, module_name, attr, _ in tracing.TRACED:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), name


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
