"""Every name a library or test module imports is used in that module, so a
deletion leaves no import behind.  The package's __init__.py is exempt: its
imports are re-exports."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gihflab"


def unused_imports(source: str):
    """Names bound by top-level imports that no ast.Name in the source
    reads, in import order; from __future__ imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_sees_every_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from typing import Callable, Optional\n"
        "from . import words\n"
        "def f(x: Optional[int]) -> None:\n    return words.word(os.path.sep)\n"
    )
    assert unused_imports(source) == ["system", "Callable"]


def _unused_in(paths):
    """(file name, import) for each unused import in the given files."""
    assert paths
    return [(path.name, name) for path in paths
            for name in unused_imports(path.read_text(encoding="utf-8"))]


def test_library_modules_use_every_import():
    assert _unused_in([path for path in sorted(SRC.glob("*.py"))
                       if path.name != "__init__.py"]) == []


def test_test_modules_use_every_import():
    assert _unused_in(sorted(TESTS.glob("*.py"))) == []
