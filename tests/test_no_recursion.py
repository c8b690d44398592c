"""No library function recurses, so no search hits Python's recursion limit
at sizes that faster code makes reachable."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gihflab"

# (file, qualified name) -> why its depth stays small
ALLOWED: dict = {}


def self_calls(source: str):
    """Qualified name of every function that calls itself by name, directly
    or from a nested function; methods count through self.name/cls.name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if any(_calls(call, child.name) for call in ast.walk(child)):
                    found.append(qualname)
                visit(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def _calls(node, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == name
    return (isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"))


def test_scan_sees_every_self_call():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    def h():\n        return h()\n    return len([])\n"
        "def outer():\n    def inner():\n        return outer()\n    return inner\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "    def n(self, other):\n        return other.n()\n"
    )
    assert self_calls(source) == ["f", "g.h", "outer", "C.m"]


def test_library_has_no_recursion_beyond_the_allow_list():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    recursive = {(path.name, name) for path in sources
                 for name in self_calls(path.read_text(encoding="utf-8"))}
    assert recursive == set(ALLOWED)
