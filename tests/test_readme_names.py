"""Every backticked dotted name or call in README.md, such as
`hashsim.table_collision` or `level_layout(w, cert)`, names an attribute of
a gihflab module or of one of its classes (a dataclass field counts), so a
rename that the README misses fails here.  Builtins are excepted.  Other
backticked text, such as CLI commands, options, JSON and plain names, is
not checked."""

import builtins
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import gihflab

README = Path(__file__).resolve().parent.parent / "README.md"
DOTTED_OR_CALL = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\([^`]*\))?")
FIELD = object()  # a dataclass field without a class attribute: nothing below it


def checked_names(text: str) -> list:
    """The names of the backticked dotted names and calls of a text, in
    order: `a.b` gives a.b, `f(x, y)` gives f, `a.f()` gives a.f."""
    names = []
    for token in re.findall(r"`([^`\n]+)`", text):
        match = DOTTED_OR_CALL.fullmatch(token)
        if match and ("." in match[1] or match[2]):
            names.append(match[1])
    return names


def _owners() -> list:
    """What a name's first part may be an attribute of: the package and its
    modules, each module, and each class a module defines."""
    modules = {info.name: importlib.import_module(f"gihflab.{info.name}")
               for info in pkgutil.iter_modules(gihflab.__path__)}
    classes = [value for module in modules.values() for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__]
    return [{"gihflab": gihflab, **modules}, *modules.values(), *classes]


def _attribute(owner, name):
    if isinstance(owner, dict):
        return owner.get(name)
    if isinstance(owner, type) and dataclasses.is_dataclass(owner) and not hasattr(owner, name):
        return FIELD if name in {f.name for f in dataclasses.fields(owner)} else None
    return getattr(owner, name, None)


def resolves(name: str, owners: list) -> bool:
    parts = name.split(".")
    if len(parts) == 1 and hasattr(builtins, name):
        return True
    for owner in owners:
        for part in parts:
            owner = None if owner is FIELD else _attribute(owner, part)
            if owner is None:
                break
        else:
            return True
    return False


def test_the_scan_picks_dotted_names_and_calls():
    text = ("`hashsim.table_collision`, `level_layout(w, cert)` and `next()`, not "
            "`--seed`, `attack gihf`, `{\"ok\": false}` or `Lookahead`")
    assert checked_names(text) == ["hashsim.table_collision", "level_layout", "next"]
    names = ["hashsim.no_such_name", "no_such_call", "gihflab.words", "next",
             "SearchOutcome.decisions", "AttackReport.raw_calls", "AttackReport.raw_calls.x",
             "CompressionOracle.warm", "hashsim.CompressionOracle.compress"]
    owners = _owners()
    assert [name for name in names if not resolves(name, owners)] == [
        "hashsim.no_such_name", "no_such_call", "AttackReport.raw_calls.x"]


def test_every_readme_name_resolves():
    names = checked_names(README.read_text(encoding="utf-8"))
    assert len(names) > 20
    owners = _owners()
    assert [name for name in names if not resolves(name, owners)] == []
