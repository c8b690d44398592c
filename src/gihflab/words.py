"""Core word and alphabet operations.

A word is a plain tuple of non-negative integer symbols; an alphabet is any
set of symbols.  Everything here is a pure function on immutable values, so
results can be shared freely between threads and certificate checkers can
recompute without aliasing hazards.

The on-disk text format used by the CLI is one word per line, symbols as
space-separated decimal integers; the empty word is an empty line.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

Word = tuple[int, ...]


def word(symbols: Iterable[int]) -> Word:
    """Normalize an iterable of symbols to a Word, rejecting negatives."""
    w = tuple(map(int, symbols))
    if min(w, default=0) < 0:
        raise ValueError("symbols must be non-negative integers")
    return w


def require_int(value, name: str) -> None:
    """Guard a size or count argument: reject a non-integer value of the
    parameter `name`, a bool too, with a TypeError and one below 1 with a
    ValueError, each naming the parameter."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def integers(values: Iterable) -> tuple[int, ...]:
    """The values as a tuple, rejecting anything but integers (bools too)."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        raise ValueError("fields must hold integers only")
    return values


def project(w: Iterable[int], subalphabet: Iterable[int]) -> Word:
    """Erase every symbol outside `subalphabet`, keeping the rest in order.

    The subalphabet does not have to be contained in the alphabet of w;
    projecting onto the empty set yields the empty word.
    """
    keep = frozenset(subalphabet)
    return tuple(s for s in w if s in keep)


def condense(w: Iterable[int], subalphabet: Iterable[int]) -> Word:
    """Project onto `subalphabet` and collapse every maximal run of equal
    adjacent symbols to a single symbol.

    Adjacent symbols of the result always differ.
    """
    return tuple(s for s, _ in groupby(project(w, subalphabet)))


def is_permutation(w: Iterable[int], alphabet: Iterable[int]) -> bool:
    """True iff w contains each symbol of `alphabet` exactly once and no others."""
    w = tuple(w)
    alphabet = frozenset(alphabet)
    return len(w) == len(alphabet) and frozenset(w) == alphabet


def spans(w: Iterable[int]) -> tuple[dict, dict]:
    """(first, last): each letter's first and last index in w, both keyed in
    first-occurrence order.  On CPython 3.11 this one loop beat building the
    tables as dict(zip(w, positions)) in each direction at every length
    measured, from 13 to 1,000 letters."""
    first: dict = {}
    last: dict = {}
    for pos, sym in enumerate(w):
        first.setdefault(sym, pos)
        last[sym] = pos
    return first, last


def split_word(w: Word, splits: Iterable[int]) -> tuple[Word, ...]:
    """Cut w at the given offsets (number of symbols before each cut).

    splits must be strictly increasing and lie strictly inside the word, so
    every resulting part is nonempty.
    """
    w = tuple(w)
    splits = tuple(splits)
    cuts = [0, *splits, len(w)]
    for a, b in zip(cuts, cuts[1:]):
        if not a < b:
            raise ValueError(f"invalid split offsets {splits} for length {len(w)}")
    return tuple(w[a:b] for a, b in zip(cuts, cuts[1:]))


def equal_blocks(w: Word, count: int) -> tuple[Word, ...]:
    """Factor w into `count` blocks of equal length."""
    require_int(count, "block count")
    w = tuple(w)
    if len(w) % count:
        raise ValueError(f"cannot cut length {len(w)} into {count} equal blocks")
    size = len(w) // count
    return tuple(w[i * size:(i + 1) * size] for i in range(count))


# -- word file format -------------------------------------------------------

def parse_words(text: str) -> list[Word]:
    return [word(line.split()) for line in text.splitlines()]


def format_word(w: Word) -> str:
    return " ".join(str(s) for s in w)


def format_words(ws: Iterable[Word]) -> str:
    lines = [format_word(w) for w in ws]
    return "\n".join(lines) + ("\n" if lines else "")
