"""Brute-force finders for two classical regularities of words.

An arithmetic cadence is a set of equally spaced positions all carrying the
same symbol.  An n-division is a factorization w = u x_1 ... x_n v whose
middle factors, shuffled by any nontrivial permutation, yield a word that is
lexicographically strictly greater than w.  Both finders are exhaustive and
meant for small instances; the existence thresholds guaranteeing hits on
long words are enormous and are deliberately not computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .words import Word, require_int

# Exhaustive caps for find_n_division (factorizations x permutations blow up
# combinatorially past this point).
MAX_NDIV_LENGTH = 15
MAX_NDIV_N = 4


@dataclass(frozen=True)
class Cadence:
    """Strictly increasing 1-based positions carrying one repeated symbol."""

    positions: tuple[int, ...]

    @property
    def difference(self) -> Optional[int]:
        if len(self.positions) < 2:
            return None
        return self.positions[1] - self.positions[0]


@dataclass(frozen=True)
class NDivision:
    """Factorization w = prefix . factors[0] ... factors[n-1] . suffix."""

    prefix: Word
    factors: tuple[Word, ...]
    suffix: Word

    def assemble(self, order: tuple[int, ...]) -> Word:
        out = list(self.prefix)
        for i in order:
            out.extend(self.factors[i])
        out.extend(self.suffix)
        return tuple(out)


def find_arithmetic_cadence(w: Word, s: int) -> Optional[Cadence]:
    """First arithmetic cadence of order s, smallest difference then smallest
    start, or None after exhausting every (start, difference) pair."""
    require_int(s, "cadence order s")
    w = tuple(w)
    if s == 1:
        return Cadence((1,)) if w else None
    length = len(w)
    for d in range(1, length):
        if (s - 1) * d > length - 1:
            break
        for start in range(1, length - (s - 1) * d + 1):
            sym = w[start - 1]
            if all(w[start - 1 + j * d] == sym for j in range(1, s)):
                return Cadence(tuple(start + j * d for j in range(s)))
    return None


def check_n_division(w: Word, division: NDivision) -> bool:
    """Re-verify a division: every nontrivial shuffle of the middle factors
    must be lexicographically strictly greater than w.  A shuffle keeps the
    length of w, so Python's tuple order is that order."""
    n = len(division.factors)
    if any(not f for f in division.factors):
        return False
    w = tuple(w)
    identity = tuple(range(n))
    if division.assemble(identity) != w:
        return False
    for sigma in permutations(range(n)):
        if sigma == identity:
            continue
        if not w < division.assemble(sigma):
            return False
    return True


def find_n_division(w: Word, n: int) -> Optional[NDivision]:
    """Exhaustively search for an n-division of w, or None if none exists.

    Raises TypeError for a non-integer n, and ValueError for n < 2 or
    instances above the documented caps (MAX_NDIV_LENGTH symbols,
    MAX_NDIV_N factors).
    """
    require_int(n, "factor count n")
    if n < 2:
        raise ValueError("factor count n must be >= 2")
    w = tuple(w)
    if n > MAX_NDIV_N or len(w) > MAX_NDIV_LENGTH:
        raise ValueError(
            f"instance above exhaustive caps (length <= {MAX_NDIV_LENGTH}, n <= {MAX_NDIV_N})")
    for cuts in combinations(range(len(w) + 1), n + 1):
        division = NDivision(
            prefix=w[:cuts[0]],
            factors=tuple(w[cuts[i]:cuts[i + 1]] for i in range(n)),
            suffix=w[cuts[-1]:],
        )
        if check_n_division(w, division):
            return division
    return None
