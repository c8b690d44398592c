"""No test patches a private name of gihflab.regularity or gihflab.hashsim.
How the structure search decided each split is read from
SearchOutcome.decisions, and the oracle's bulk path, its batch size and its
lane layout are seen only through compress's values and counters, so a
change to how splits are decided or how rounds are batched breaks only
tests of the result."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GUARDED = ("regularity", "gihflab.regularity", "hashsim", "gihflab.hashsim")


def private_patches(source: str):
    """(line, name) of every setattr(target, "name", ...) call, including
    monkeypatch.setattr, whose target is a guarded module (as `regularity`
    or `gihflab.regularity`, or the dotted string form
    "gihflab.regularity.name", and likewise for hashsim) and whose name
    starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _is_setattr(node.func) and node.args):
            continue
        target = node.args[0]
        if isinstance(target, ast.Constant) and isinstance(target.value, str):
            module, _, name = target.value.rpartition(".")
        elif len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            module, name = ast.unparse(target), node.args[1].value
        else:
            continue
        if module in GUARDED and str(name).startswith("_"):
            found.append((node.lineno, name))
    return found


def _is_setattr(func) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "setattr"
    return isinstance(func, ast.Attribute) and func.attr == "setattr"


def test_scan_sees_every_private_patch():
    source = (
        "def test_a(monkeypatch):\n"
        "    monkeypatch.setattr(regularity, '_first_subalphabet', f)\n"
        "    monkeypatch.setattr(regularity, 'find_structure', f)\n"
        "    monkeypatch.setattr(nesting, '_subset_request', f)\n"
        "    monkeypatch.setattr('gihflab.regularity._span_conflicts', f)\n"
        "    monkeypatch.setattr(module, 'find_structure', f)\n"
        "    setattr(gihflab.regularity, '_span_conflicts', f)\n"
        "    setattr(regularity, 'DEFAULT_MAX_FACTORIZATIONS', 3)\n"
        "    monkeypatch.setattr(hashsim, '_BATCH', 3)\n"
        "    monkeypatch.setattr('gihflab.hashsim._packed_rounds', f)\n"
        "    monkeypatch.setattr(hashsim, 'block_stream', f)\n"
    )
    assert private_patches(source) == [(2, "_first_subalphabet"), (5, "_span_conflicts"),
                                       (7, "_span_conflicts"), (9, "_BATCH"),
                                       (10, "_packed_rounds")]


def test_no_test_patches_a_private_regularity_name():
    sources = sorted(TESTS.glob("*.py"))
    assert sources
    patched = [(path.name, line, name) for path in sources
               for line, name in private_patches(path.read_text(encoding="utf-8"))]
    assert patched == []
