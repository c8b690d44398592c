"""Every name a library module imports is used in that module, so a deletion
leaves no import behind.  __init__.py is exempt: its imports are re-exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gihflab"


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


def test_library_modules_use_every_import():
    sources = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert sources
    unused = [(path.name, name) for path in sources
              for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
