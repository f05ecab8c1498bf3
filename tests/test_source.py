import ast
import collections
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in ("src", "tests") for p in (ROOT / folder).rglob("*.py"))
# numpy is the one dependency pyproject.toml declares
ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy", "tvmask"}


def duplicate_definitions(source: str) -> list[str]:
    """Module-level function and class names defined more than once; every
    definition but the last is shadowed and never runs."""
    names = collections.Counter(
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    return sorted(name for name, count in names.items() if count > 1)


def test_duplicate_finder_sees_a_shadowed_test():
    source = "def test_a():\n    pass\n\nclass B:\n    pass\n\ndef test_a():\n    pass\n"
    assert duplicate_definitions(source) == ["test_a"]


def test_no_module_level_name_defined_twice():
    found = {str(path.relative_to(ROOT)): duplicate_definitions(path.read_text(encoding="utf-8"))
             for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports in source that are neither the
    standard library, numpy nor tvmask itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - ALLOWED_IMPORTS)


def test_import_finder_sees_a_dependency():
    source = ("import os, numpy as np\nfrom tvmask.masking import plan\n"
              "def f():\n    import scipy.linalg\n    from numba import njit\n")
    assert foreign_imports(source) == ["numba", "scipy"]


def test_src_imports_only_stdlib_and_numpy():
    found = {str(path.relative_to(ROOT)): foreign_imports(path.read_text(encoding="utf-8"))
             for path in MODULES if path.is_relative_to(ROOT / "src")}
    assert {path: names for path, names in found.items() if names} == {}
