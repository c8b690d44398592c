"""The library stays pure standard-library Python."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gihflab"


def absolute_imports(source: str):
    """Top-level module of every absolute import in the source text."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_import_scan_sees_every_absolute_import():
    source = "import os.path, numpy as np\nfrom . import words\nfrom scipy.stats import norm\n"
    assert list(absolute_imports(source)) == ["os", "numpy", "scipy"]


def test_library_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [(path.name, module) for path in sources
               for module in absolute_imports(path.read_text(encoding="utf-8"))
               if module not in sys.stdlib_module_names]
    assert foreign == []
