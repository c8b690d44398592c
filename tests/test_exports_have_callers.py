"""Every public top-level function and class of a gihflab module, and every
public method or property of such a class, has a caller in a library module
or a bench script, so the package defines no public name only the tests use.
Dataclass fields are not scanned: asdict and to_dict read them without
naming them.  The package itself re-exports nothing: its API is the
modules."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gihflab"
BENCH = ROOT / "bench"


def public_definitions(source: str):
    """Top-level functions and classes of a module source whose names do not
    start with an underscore, in definition order."""
    return [stmt.name for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")]


def public_methods(source: str):
    """(class, method) for the methods and properties, not starting with an
    underscore, of the top-level classes of a module source whose names do
    not start with one, in definition order."""
    return [(cls.name, stmt.name) for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_")]


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


def test_scans_see_callers():
    source = (
        "def f(x):\n    return f(x) + g\n"
        "class C:\n    size: C\n"
        "def g():\n    return gihflab.h(C)\n"
    )
    names = referenced_names(source)
    assert {"g", "gihflab", "h", "C"} <= names
    assert "f" not in names  # f only calls itself
    assert public_definitions(source + "def _h():\n    pass\nX = 1\n") == ["f", "C", "g"]
    members = (
        "class D:\n    size: int\n    @property\n    def area(self):\n        return 1\n"
        "    def grow(self):\n        pass\n    def _hidden(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "class _E:\n    def shown(self):\n        pass\n"
    )
    assert public_methods(members) == [("D", "area"), ("D", "grow")]


def library_reads() -> set:
    """Names read by the library modules other than __init__ and by the
    bench scripts."""
    callers = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    callers += sorted(BENCH.glob("*.py"))
    assert callers
    return set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                         for path in callers))


def test_package_binds_only_its_version():
    nodes = list(ast.walk(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))))
    assert not [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not [node for node in nodes
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert {node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)} == {"__version__"}


def test_every_public_definition_has_a_caller_outside_the_tests():
    used = library_reads()
    public = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
              for name in public_definitions(path.read_text(encoding="utf-8"))]
    assert public
    assert [f"{module}.{name}" for module, name in public if name not in used] == []


def test_every_public_method_has_a_caller_outside_the_tests():
    used = library_reads()
    methods = [(path.stem, cls, name) for path in sorted(SRC.glob("*.py"))
               for cls, name in public_methods(path.read_text(encoding="utf-8"))]
    assert methods
    assert [f"{module}.{cls}.{name}" for module, cls, name in methods if name not in used] == []
