"""Every attribute a gihflab module stores on self is read by a library
module or a bench script, so no stored state outlives the code that read
it: a cache removed from the code that consulted it, but not from the
constructor, fails here.  A read is a load of an attribute of that name on
any object; an augmented assignment such as self.hits += 1 only stores."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gihflab"
BENCH = ROOT / "bench"


def stored_attributes(source: str) -> set:
    """Names the source stores as attributes of self."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def loaded_attributes(source: str) -> set:
    """Attribute names the source loads, on any object."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_scans_see_stores_and_reads():
    source = (
        "class C:\n"
        "    def __init__(self, other):\n"
        "        self.read = 1\n        self.unread = 2\n        self.counted = 0\n"
        "        other.elsewhere = 3\n"
        "    def step(self):\n"
        "        self.counted += 1\n        del self.unread\n        return self.read\n"
    )
    assert stored_attributes(source) == {"read", "unread", "counted"}
    assert loaded_attributes(source) == {"read"}


def test_every_stored_attribute_is_read_outside_the_tests():
    readers = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    read = set().union(*(loaded_attributes(path.read_text(encoding="utf-8"))
                         for path in readers))
    stored = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
              for name in sorted(stored_attributes(path.read_text(encoding="utf-8")))]
    assert stored
    assert [f"{module}.{name}" for module, name in stored if name not in read] == []
