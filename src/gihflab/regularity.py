"""Permutation-structure certificates of repetition-bounded words.

Any word in which each symbol occurs at most q times is forced, once its
alphabet is large enough, to factor into p <= q parts that all condense to
permutations of one common m-letter subalphabet.  This module finds such
certificates, verifies them by pure recomputation, generates the extremal
2-bounded witness family showing the q=2 boundary is exactly m*m - m + 1,
and computes the boundary exhaustively at desk scale.

The search works factorization-first: for a fixed factorization the valid
subalphabets are exactly the independent sets of a conflict relation over
the letters present in every part.  Two letters conflict when their
occurrence spans overlap in some part, since one then occurs strictly inside
the other's span and a condensed run would break.  The relation is held as
one integer bitmask per candidate, built per part from running masks of the
spans started and still open at each position, so it costs big-int
operations linear in the part rather than a test per pair of letters.  One
exhaustive depth-first growth of conflict-free subsets, kept on an explicit
stack rather than the call stack, is then sound, and the checker
re-validates every hit anyway.  Two exact prunes leave the search order and
its first certificate unchanged: only factorizations whose parts all hold at
least m letters are enumerated, and a factorization is refused before any
growth when fewer than m candidates conflict with at most (candidates - m)
others, as every letter of a conflict-free m-subset does.

Every examined split is recorded, in search order, with the kind of
decision that settled it: "candidates" (fewer than m letters are present in
every part), "degree" (the conflict-degree refusal), "growth" (the growth
ran out) or "certificate" (a subalphabet was found, so the search stops).

A decision reads the word once, with one Counter for the largest
occurrence count and the alphabet size.  Each examined split is decided
from its parts alone, each sliced from the cut offsets and read once for
its first and last occurrence tables; the first part's table orders the
candidates.  One filtering pass per part checks the certificate found.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import accumulate, combinations, groupby
from typing import Iterator, Optional

from .words import Word, integers, require_int, spans

DEFAULT_MAX_FACTORIZATIONS = 2_000_000


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
        """Inverse of to_dict; raises ValueError on a non-integer field."""
        (p,) = integers([data["p"]])
        return cls(integers(data["A"]), p, integers(data["splits"]))


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a certificate search.

    exhaustive=True together with certificate=None means the full
    (p, splits, subset) space was enumerated and no certificate exists.
    decisions holds (splits, kind) for every split examined, in search
    order, kind being "candidates", "degree", "growth" or "certificate"
    (see the module docstring); it takes no part in equality.
    """

    certificate: Optional[StructureCertificate]
    exhaustive: bool
    decisions: tuple[tuple[tuple[int, ...], str], ...] = field(default=(), compare=False)


def verify_structure(w: Word, cert: StructureCertificate, m: int) -> bool:
    """Check a certificate by recomputation only; never raises on bad input.

    The cut offsets must rise strictly from 0 to len(w), and each part,
    filtered to the subalphabet with its runs collapsed, must hold every
    chosen letter exactly once."""
    try:  # malformed fields and unhashable symbols of w raise in here
        w = tuple(w)
        chosen = tuple(cert.subalphabet)
        subset = set(chosen)
        p = operator.index(cert.p)
        splits = tuple(map(operator.index, cert.splits))
        m = operator.index(m)
        if len(chosen) != len(subset) or len(subset) != m or m < 1:
            return False
        if p < 1 or len(splits) != p - 1:
            return False
        bounds = (0, *splits, len(w))
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            return False
        for a, b in zip(bounds, bounds[1:]):
            runs = [s for s, _ in groupby(filter(subset.__contains__, w[a:b]))]
            if len(runs) != m or set(runs) != subset:
                return False
    except (TypeError, AttributeError, ValueError):
        return False
    return True


# -- finder ------------------------------------------------------------------

def _span_conflicts(parts, m) -> tuple[list, Optional[list[int]]]:
    """Letters present in every part, in their first-occurrence order in
    the first part, which is the word's for a split of one word, and, when
    there are at least m of them, their conflict relation as one bitmask
    per candidate (bit j of masks[i] set iff candidates i and j conflict).

    Two letters conflict when their occurrence spans overlap in some part:
    one then occurs strictly inside the other's span, so projecting onto a
    set containing both would split the outer letter's run.  Span j meets
    span i iff j starts at or before i's end and ends at or after i's start,
    so per part the masks come from two running ORs over positions, one of
    spans started so far and one of spans still open, in O(|part| + |cands|)
    big-int operations rather than a test per pair.
    """
    tables = [spans(part) for part in parts]
    common = set(tables[0][0]).intersection(*(first for first, _ in tables[1:]))
    cands = [a for a in tables[0][0] if a in common]
    if len(cands) < m:
        return cands, None
    masks = [0] * len(cands)
    for part, (first, last) in zip(parts, tables):
        starts = [0] * len(part)
        ends = [0] * len(part)
        for i, a in enumerate(cands):
            starts[first[a]] = 1 << i
            ends[last[a]] = 1 << i
        started = list(accumulate(starts, operator.or_))
        ending = list(accumulate(reversed(ends), operator.or_))
        ending.reverse()
        for i, a in enumerate(cands):
            masks[i] |= started[last[a]] & ending[first[a]]
    return cands, [mask & ~(1 << i) for i, mask in enumerate(masks)]


def _first_subalphabet(parts, m) -> tuple[str, Optional[tuple[int, ...]]]:
    """(kind, subset): the first conflict-free m-subset of the letters
    present in every part, with kind "certificate", or None with the kind
    of refusal: "candidates" when fewer than m letters are present in every
    part, "degree" or "growth".

    Letters conflict when their spans overlap in some part; the relation is
    a bitmask per candidate built from running span masks (_span_conflicts).
    Each letter of a conflict-free m-subset conflicts only with letters
    outside it, so unless m candidates conflict with at most total - m
    others none exists, and the split is refused ("degree") before any
    growth.  Otherwise depth-first growth over candidate indices in
    increasing order, on an explicit `chosen` stack, pruned by
    conflicts and by the number of candidates left; the first subset
    completed is the lexicographically earliest.
    """
    cands, masks = _span_conflicts(parts, m)
    if masks is None:
        return "candidates", None
    total = len(cands)
    if sorted(map(int.bit_count, masks))[m - 1] > total - m:
        return "degree", None
    chosen: list[int] = []
    idx = 0
    while len(chosen) < m:
        if len(chosen) + total - idx < m:
            if not chosen:
                return "growth", None
            idx = chosen.pop() + 1
            continue
        bit = 1 << idx
        if not any(masks[c] & bit for c in chosen):
            chosen.append(idx)
        idx += 1
    return "certificate", tuple(cands[i] for i in chosen)


def factorization_count(length: int, q: int) -> int:
    """Number of ways to cut a word of `length` letters into at most q
    nonempty parts, or DEFAULT_MAX_FACTORIZATIONS + 1 once that count passes
    the cap.  This is the count find_structure's cap reads; the search
    itself examines only the admissible splits among them.  At most
    min(q, length) binomials are summed: no word has more nonempty parts
    than letters."""
    total = 0
    for p in range(1, min(q, max(length, 1)) + 1):
        total += math.comb(max(length - 1, 0), p - 1)
        if total > DEFAULT_MAX_FACTORIZATIONS:
            return DEFAULT_MAX_FACTORIZATIONS + 1
    return total


def find_structure(w: Word, m: int, q: int) -> SearchOutcome:
    """Exhaustively search for a structure certificate with |subalphabet| = m
    and p <= q.

    Enumerates smaller p first, then lexicographically earliest splits, then
    letters in first-occurrence order, so outputs are deterministic and
    absence is a proof of nonexistence.  A part that condenses to a
    permutation of m letters holds at least m letters, so only admissible
    splits, whose parts all do, are examined: C(l - p*m + p - 1, p - 1) of
    them at each p, in the same order, taken from the splits of the word
    shrunk by m - 1 letters per part with cut i moved back by i * (m - 1).
    A split whose conflict degrees already rule out m letters is refused
    before any growth (_first_subalphabet).  The outcome's decisions record
    each examined split with its kind: "candidates", "degree" or "growth"
    for a refusal, "certificate" for the last split of a find.  Rejects m
    or q below 1 or not an integer (require_int), words that are not
    q-bounded and requests whose factorization count exceeds
    DEFAULT_MAX_FACTORIZATIONS; refuses m larger than the word's alphabet
    without examining any split.
    """
    require_int(m, "subalphabet size m")
    require_int(q, "occurrence bound q")
    w = tuple(w)
    counts = Counter(w)
    top = max(counts.values(), default=0)
    if top > q:
        raise ValueError(f"word is not {q}-bounded (max occurrence count {top})")

    length = len(w)
    if factorization_count(length, q) > DEFAULT_MAX_FACTORIZATIONS:
        raise ValueError(f"exhaustive search over more than "
                         f"{DEFAULT_MAX_FACTORIZATIONS} factorizations")
    if m > len(counts):
        return SearchOutcome(None, exhaustive=True)

    shift = m - 1
    decisions = []
    for p in range(1, min(q, length // m) + 1):
        for cuts in combinations(range(1, length - p * shift), p - 1):
            splits = tuple(c + i * shift for i, c in enumerate(cuts, 1))
            bounds = (0, *splits, length)
            parts = [w[a:b] for a, b in zip(bounds, bounds[1:])]
            kind, found = _first_subalphabet(parts, m)
            decisions.append((splits, kind))
            if found is not None:
                cert = StructureCertificate(found, p, splits)
                if not verify_structure(w, cert, m):
                    raise RuntimeError(f"internal error: unsound certificate {cert}")
                return SearchOutcome(cert, True, tuple(decisions))
    return SearchOutcome(None, True, tuple(decisions))


# -- witness family and exact boundary ----------------------------------------

def extremal_witness(m: int) -> Word:
    """Extremal 2-bounded word over m*(m-1) letters admitting no size-m
    certificate with p <= 2.

    Built from m-1 segments; segment i uses its own m fresh letters, rising
    then falling so every letter except the peak occurs twice.  Refuses,
    unbuilt, a witness of more than DEFAULT_MAX_FACTORIZATIONS letters:
    a word of l letters has l factorizations into at most 2 parts, so
    find_structure would refuse it at any q >= 2.
    """
    require_int(m, "subalphabet size m")
    if m < 2:
        raise ValueError("subalphabet size m must be >= 2 for the witness family")
    length = (m - 1) * (2 * m - 1)
    if length > DEFAULT_MAX_FACTORIZATIONS:
        raise ValueError(f"the witness for m={m} would have {length} letters, more than "
                         f"the {DEFAULT_MAX_FACTORIZATIONS} a structure search accepts")
    out: list[int] = []
    for i in range(m - 1):
        base = i * m
        rising = [base + j for j in range(1, m + 1)]
        out.extend(rising)
        out.extend(reversed(rising[:-1]))
    return tuple(out)


def canonical_bounded_words(size: int, q: int) -> Iterator[Word]:
    """All canonical q-bounded words whose alphabet is exactly {1..size}:
    those whose letters first occur in the order 1, 2, 3, ...

    Enumeration is depth-first, on the explicit `current` stack: extend by
    any already-used letter still below its occurrence cap, or by the next
    fresh letter, trying letters in increasing order, so words come out in
    tuple order.  Rejects a size or q below 1 or not an integer
    (require_int), as find_structure does: no count would ever reach a
    fractional q.
    """
    require_int(size, "alphabet size")
    require_int(q, "occurrence bound q")
    counts = [0] * (size + 1)
    full = bytearray(size + 1)  # full[a] = 1 once letter a occurs q times
    current: list[int] = []
    used = 0  # letters in current, which are exactly 1..used
    a = 1  # next letter to try appending to current
    while True:
        a = full.find(0, a, min(used + 1, size) + 1)
        if a > 0:
            counts[a] += 1
            full[a] = counts[a] == q
            current.append(a)
            used = max(used, a)
            if used == size:
                yield tuple(current)
            a = 1
        elif current:
            a = current.pop()
            counts[a] -= 1
            full[a] = 0
            if not counts[a]:  # a was fresh where it was appended
                used -= 1
            a += 1
        else:
            return


@dataclass(frozen=True)
class SizeReport:
    """Outcome of checking one alphabet size during boundary computation;
    decided counts the splits examined at that size, over every word
    checked, by kind of decision (SearchOutcome.decisions)."""

    alphabet_size: int
    words_checked: int
    violator: Optional[Word]
    decided: dict


@dataclass(frozen=True)
class ComputeNResult:
    """Exact boundary value when found, otherwise the verified range.

    value is the least alphabet size at which every canonical q-bounded word
    admits a size-m certificate.  Checking one size suffices for all larger
    ones: deleting any letter from a larger-alphabet word yields a word of
    the previous size whose certificate lifts back (projection commutes with
    condensation on subalphabets).  exhaustive is False exactly when every
    size up to the cap had a violator.
    """

    m: int
    q: int
    value: Optional[int]
    alphabet_cap: int
    reports: tuple[SizeReport, ...]

    @property
    def exhaustive(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "q": self.q,
            "N": self.value,
            "exhaustive": self.exhaustive,
            "alphabet_cap": self.alphabet_cap,
            "sizes": [asdict(r) for r in self.reports],
        }


def compute_n(m: int, q: int, alphabet_cap: int) -> ComputeNResult:
    """Exhaustively determine the least alphabet size forcing a size-m
    certificate in every q-bounded word, scanning sizes 1..alphabet_cap.

    Stops at the first size with no violating word; if every size up to the
    cap has a violator, returns a partial report flagged exhaustive=False.
    """
    require_int(m, "subalphabet size m")
    require_int(q, "occurrence bound q")
    require_int(alphabet_cap, "alphabet cap")
    reports: list[SizeReport] = []
    for size in range(1, alphabet_cap + 1):
        violator: Optional[Word] = None
        checked = 0
        decided: Counter = Counter()
        for candidate in canonical_bounded_words(size, q):
            checked += 1
            outcome = find_structure(candidate, m, q)
            decided.update(kind for _, kind in outcome.decisions)
            if outcome.certificate is None:
                violator = candidate
                break
        reports.append(SizeReport(size, checked, violator, dict(decided)))
        if violator is None:
            return ComputeNResult(m, q, size, alphabet_cap, tuple(reports))
    return ComputeNResult(m, q, None, alphabet_cap, tuple(reports))


def capped_power(base: int, exp: int, cap: Optional[int]) -> int:
    """min(base ** exp, cap), or base ** exp when cap is None, built no
    larger than about cap^2: a power whose bit-length bound
    (base.bit_length() - 1) * exp reaches cap's is past it."""
    if cap is not None and base > 1 and (base.bit_length() - 1) * exp >= cap.bit_length():
        return cap
    value = base ** exp
    return value if cap is None else min(value, cap)


def structure_threshold(m: int, q: int, *, at_most: Optional[int] = None) -> int:
    """Least alphabet size guaranteeing a size-m certificate in any q-bounded
    word: m^(2^(q-1)), but m * m - m + 1 at q = 2; exact for m = 1, q = 1
    and q = 2, a proven upper bound otherwise.  With `at_most`, the smaller
    of the two, built no larger than about at_most^2 (capped_power).
    Rejects m or q below 1 or not an integer (require_int)."""
    require_int(m, "subalphabet size m")
    require_int(q, "occurrence bound q")
    if q == 2:
        return capped_power(m * m - m + 1, 1, at_most)
    # an exponent past the cap's bit length puts any m >= 2 past the cap
    bits = None if at_most is None else at_most.bit_length()
    return capped_power(m, capped_power(2, q - 1, bits), at_most)
