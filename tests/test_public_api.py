"""Every function or class of the package, public or private, has a caller
outside the tests: some module of the package, a demo or the benchmark
harness refers to it by name, attribute or import. The package's `__init__`
re-exports do not count, since exporting a name is not using it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "iadt").glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def definitions(path, private):
    """Names of the module-level private (or public) functions and classes in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body
            if isinstance(node, kinds) and node.name.startswith("_") == private]


def referenced_names(paths):
    """Every name, attribute and imported name that appears in `paths`."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def unused_definitions(private):
    used = referenced_names(CALLERS)
    return [f"{path.stem}.{name}" for path in MODULES for name in definitions(path, private)
            if name not in used]


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    assert MODULES and CALLERS
    assert unused_definitions(private=False) == []


def test_every_private_function_and_class_has_a_caller_outside_the_tests():
    # A private helper that only its own tests call is dead code.
    assert sum(len(definitions(path, private=True)) for path in MODULES) > 0
    assert unused_definitions(private=True) == []
