"""No library code uses an assert statement: `python -O` strips asserts,
so a broken guarantee of the engine must raise an exception instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gihflab"


def assert_lines(source: str):
    """Line number of every assert statement, nested ones included."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_scan_sees_every_assert():
    source = (
        "assert True\n"
        "def f(x):\n    if x:\n        assert x, 'message'\n    return x\n"
        "class C:\n    def m(self):\n        assert self\n"
        "def g():\n    return 'assert x'\n"
    )
    assert assert_lines(source) == [1, 4, 8]


def test_library_has_no_assert():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = {(path.name, line) for path in sources
             for line in assert_lines(path.read_text(encoding="utf-8"))}
    assert found == set()
