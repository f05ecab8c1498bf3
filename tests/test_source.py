import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in ("src", "tests") for p in (ROOT / folder).rglob("*.py"))


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
