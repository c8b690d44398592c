"""Every name gihflab/__init__.py re-exports has a caller in a library module
or a bench script, so the package exports no name only the tests use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gihflab"
BENCH = ROOT / "bench"


def reexports(source: str):
    """Names bound by the relative from-imports of an __init__ source, in
    import order."""
    return [alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def referenced_names(source: str) -> set:
    """Names the source reads, as a bare name or an attribute, outside the
    top-level definition of the same name."""
    referenced = set()
    for stmt in ast.parse(source).body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        referenced |= names
    return referenced


def test_scans_see_reexports_and_callers():
    init = "from .words import word as w, split_word\nfrom os import sep\n"
    assert reexports(init) == ["w", "split_word"]
    source = (
        "def f(x):\n    return f(x) + g\n"
        "class C:\n    size: C\n"
        "def g():\n    return gihflab.h(C)\n"
    )
    names = referenced_names(source)
    assert {"g", "gihflab", "h", "C"} <= names
    assert "f" not in names  # f only calls itself


def test_every_export_has_a_caller_outside_the_tests():
    callers = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    callers += sorted(BENCH.glob("*.py"))
    assert callers
    used = set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                         for path in callers))
    exports = reexports((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert exports
    assert [name for name in exports if name not in used] == []
