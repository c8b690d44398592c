"""Permutation-structure certificates of repetition-bounded words.

Any word in which each symbol occurs at most q times is forced, once its
alphabet is large enough, to factor into p <= q parts that all condense to
permutations of one common m-letter subalphabet.  This module finds such
certificates, verifies them by pure recomputation, generates the extremal
2-bounded witness family showing the q=2 boundary is exactly m*m - m + 1,
and computes the boundary exhaustively at desk scale.

The search works factorization-first: for a fixed factorization the valid
subalphabets are exactly the cliques of a compatibility relation (a letter
is compatible with another unless one occurs strictly inside the other's
occurrence span within some part, which would break its condensed run), so
subset growth with span pruning is sound and the checker re-validates every
hit anyway.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .words import (
    Word,
    condense,
    first_occurrence_order,
    is_permutation,
    split_word,
    word_stats,
)

DEFAULT_MAX_FACTORIZATIONS = 2_000_000
DEFAULT_GREEDY_BUDGET = 50_000


@dataclass(frozen=True)
class StructureCertificate:
    """Witness that a word factors into p parts, each condensing to a
    permutation of the chosen subalphabet.

    subalphabet is stored in first-occurrence order; splits are the p-1 cut
    offsets (number of symbols before each cut).
    """

    subalphabet: tuple[int, ...]
    p: int
    splits: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"A": list(self.subalphabet), "p": self.p, "splits": list(self.splits)}

    @classmethod
    def from_dict(cls, data: dict) -> "StructureCertificate":
        return cls(tuple(data["A"]), int(data["p"]), tuple(data["splits"]))


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a certificate search.

    exhaustive=True together with certificate=None means the full
    (p, splits, subset) space was enumerated and no certificate exists.
    """

    certificate: Optional[StructureCertificate]
    exhaustive: bool


def verify_structure(w: Word, cert: StructureCertificate, m: int) -> bool:
    """Check a certificate by recomputation only; never raises on bad input."""
    try:
        w = tuple(w)
        letters = set(w)
        chosen = tuple(cert.subalphabet)
        subset = set(chosen)
        p = int(cert.p)
        splits = tuple(map(operator.index, cert.splits))
    except (TypeError, AttributeError, ValueError):
        return False
    if len(chosen) != len(subset) or len(subset) != m or m < 1:
        return False
    if not subset <= letters:
        return False
    if p < 1 or len(splits) != p - 1:
        return False
    if any(not 0 < s < len(w) for s in splits):
        return False
    if any(splits[i] >= splits[i + 1] for i in range(len(splits) - 1)):
        return False
    parts = split_word(w, splits)
    return all(is_permutation(condense(part, subset), subset) for part in parts)


# -- finder ------------------------------------------------------------------

def _part_occurrences(part: Word) -> dict:
    occ: dict = {}
    for idx, sym in enumerate(part):
        occ.setdefault(sym, []).append(idx)
    return occ


def _candidates_and_conflicts(parts, order):
    """Letters present in every part, plus the pairwise conflict relation.

    Two letters conflict when, inside some part, one has an occurrence
    strictly between the first and last occurrence of the other: projecting
    onto a set containing both would then split the outer letter's run.
    """
    occs = [_part_occurrences(part) for part in parts]
    cands = [a for a in order if all(a in occ for occ in occs)]
    index = {a: i for i, a in enumerate(cands)}
    conflicts = [set() for _ in cands]
    for occ in occs:
        for a in cands:
            pa = occ[a]
            lo, hi = pa[0], pa[-1]
            if hi - lo < 2:
                continue
            for b in cands:
                if b == a:
                    continue
                if any(lo < x < hi for x in occ[b]):
                    conflicts[index[a]].add(index[b])
                    conflicts[index[b]].add(index[a])
    return cands, conflicts


class _Budget:
    """Node counter for greedy mode; exhaustive mode passes None instead."""

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self) -> bool:
        self.remaining -= 1
        return self.remaining >= 0


def _grow_subalphabet(cands, conflicts, m, budget) -> Optional[tuple[int, ...]]:
    """Depth-first subset growth in candidate order, pruned by conflicts and
    by remaining-candidate count.  Returns the first m-subset found."""
    chosen: list[int] = []
    total = len(cands)

    def grow(start: int) -> Optional[bool]:
        if len(chosen) == m:
            return True
        if len(chosen) + (total - start) < m:
            return False
        for idx in range(start, total):
            if any(idx in conflicts[c] for c in chosen):
                continue
            if budget is not None and not budget.spend():
                return None
            chosen.append(idx)
            result = grow(idx + 1)
            if result:
                return True
            chosen.pop()
            if result is None:
                return None
        return False

    result = grow(0)
    if result:
        return tuple(cands[i] for i in chosen)
    return None if result is False else _BUDGET_EXHAUSTED


_BUDGET_EXHAUSTED = object()


def find_structure(w: Word, m: int, q: int, mode: str = "exhaustive", *,
                   max_factorizations: int = DEFAULT_MAX_FACTORIZATIONS,
                   greedy_budget: int = DEFAULT_GREEDY_BUDGET) -> SearchOutcome:
    """Search for a structure certificate with |subalphabet| = m and p <= q.

    Exhaustive mode enumerates smaller p first, then lexicographically
    earliest splits, then letters in first-occurrence order, so outputs are
    deterministic; absence is then a proof of nonexistence.  Greedy mode is
    the same search under a backtracking budget and may give up early
    (exhaustive=False).  Rejects words that are not q-bounded and exhaustive
    requests whose factorization count exceeds `max_factorizations`.
    """
    if m < 1:
        raise ValueError("subalphabet size m must be >= 1")
    if q < 1:
        raise ValueError("occurrence bound q must be >= 1")
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    w = tuple(w)
    stats = word_stats(w)
    if stats.max_count > q:
        raise ValueError(f"word is not {q}-bounded (max occurrence count {stats.max_count})")

    length = len(w)
    if mode == "exhaustive":
        total = sum(math.comb(max(length - 1, 0), p - 1) for p in range(1, q + 1))
        if total > max_factorizations:
            raise ValueError(
                f"exhaustive search over {total} factorizations exceeds cap {max_factorizations}")

    order = first_occurrence_order(w)
    budget = _Budget(greedy_budget) if mode == "greedy" else None

    for p in range(1, q + 1):
        for splits in combinations(range(1, length), p - 1):
            parts = split_word(w, splits) if length else (w,)
            cands, conflicts = _candidates_and_conflicts(parts, order)
            if len(cands) < m:
                continue
            found = _grow_subalphabet(cands, conflicts, m, budget)
            if found is _BUDGET_EXHAUSTED:
                return SearchOutcome(None, exhaustive=False)
            if found is not None:
                cert = StructureCertificate(found, p, splits)
                if not verify_structure(w, cert, m):
                    raise RuntimeError(f"internal error: unsound certificate {cert}")
                return SearchOutcome(cert, exhaustive=(mode == "exhaustive"))
    return SearchOutcome(None, exhaustive=(mode == "exhaustive"))


# -- witness family and exact boundary ----------------------------------------

def extremal_witness(m: int) -> Word:
    """Extremal 2-bounded word over m*(m-1) letters admitting no size-m
    certificate with p <= 2.

    Built from m-1 segments; segment i uses its own m fresh letters, rising
    then falling so every letter except the peak occurs twice.
    """
    if m < 2:
        raise ValueError("witness family is defined for m >= 2")
    out: list[int] = []
    for i in range(m - 1):
        base = i * m
        rising = [base + j for j in range(1, m + 1)]
        out.extend(rising)
        out.extend(reversed(rising[:-1]))
    return tuple(out)


def canonical_form(w: Word) -> Word:
    """Rename symbols by first occurrence to 1, 2, 3, ...

    Two words have equal canonical forms iff they differ by a symbol
    bijection.
    """
    names: dict = {}
    out = []
    for s in w:
        if s not in names:
            names[s] = len(names) + 1
        out.append(names[s])
    return tuple(out)


def canonical_bounded_words(size: int, q: int) -> Iterator[Word]:
    """All canonical q-bounded words whose alphabet is exactly {1..size}.

    Enumeration is depth-first: extend by any already-used letter still
    below its occurrence cap, or by the next fresh letter.
    """
    if size < 1 or q < 1:
        raise ValueError("alphabet size and bound must be >= 1")
    counts = [0] * (size + 2)
    current: list[int] = []

    def extend(used: int) -> Iterator[Word]:
        if used == size:
            yield tuple(current)
        limit = min(used + 1, size)
        for a in range(1, limit + 1):
            if counts[a] >= q:
                continue
            counts[a] += 1
            current.append(a)
            yield from extend(used + (1 if a == used + 1 else 0))
            current.pop()
            counts[a] -= 1

    yield from extend(0)


@dataclass(frozen=True)
class SizeReport:
    """Outcome of checking one alphabet size during boundary computation."""

    alphabet_size: int
    words_checked: int
    violator: Optional[Word]


@dataclass(frozen=True)
class ComputeNResult:
    """Exact boundary value when found, otherwise the verified range.

    value is the least alphabet size at which every canonical q-bounded word
    admits a size-m certificate.  Checking one size suffices for all larger
    ones: deleting any letter from a larger-alphabet word yields a word of
    the previous size whose certificate lifts back (projection commutes with
    condensation on subalphabets).  exhaustive=False flags a cap hit.
    """

    m: int
    q: int
    value: Optional[int]
    exhaustive: bool
    alphabet_cap: int
    reports: tuple[SizeReport, ...]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "q": self.q,
            "N": self.value,
            "exhaustive": self.exhaustive,
            "alphabet_cap": self.alphabet_cap,
            "sizes": [
                {
                    "alphabet_size": r.alphabet_size,
                    "words_checked": r.words_checked,
                    "violator": list(r.violator) if r.violator is not None else None,
                }
                for r in self.reports
            ],
        }


def compute_n(m: int, q: int, alphabet_cap: int) -> ComputeNResult:
    """Exhaustively determine the least alphabet size forcing a size-m
    certificate in every q-bounded word, scanning sizes 1..alphabet_cap.

    Stops at the first size with no violating word; if every size up to the
    cap has a violator, returns a partial report flagged exhaustive=False.
    """
    if m < 1 or q < 1:
        raise ValueError("m and q must be >= 1")
    if alphabet_cap < 1:
        raise ValueError("alphabet_cap must be >= 1")
    reports: list[SizeReport] = []
    for size in range(1, alphabet_cap + 1):
        violator: Optional[Word] = None
        checked = 0
        for candidate in canonical_bounded_words(size, q):
            checked += 1
            outcome = find_structure(candidate, m, q, "exhaustive")
            if outcome.certificate is None:
                violator = candidate
                break
        reports.append(SizeReport(size, checked, violator))
        if violator is None:
            return ComputeNResult(m, q, size, True, alphabet_cap, tuple(reports))
    return ComputeNResult(m, q, None, False, alphabet_cap, tuple(reports))


def structure_threshold(m: int, q: int) -> int:
    """Least alphabet size guaranteeing a size-m certificate in any q-bounded
    word: exact for m = 1, q = 1 and q = 2, a proven upper bound otherwise."""
    if m < 1 or q < 1:
        raise ValueError("m and q must be >= 1")
    if m == 1:
        return 1
    if q == 1:
        return m
    if q == 2:
        return m * m - m + 1
    return m ** (2 ** (q - 1))
