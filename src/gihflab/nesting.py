"""Nested block structure shared by several permutations of one alphabet.

Three layers build on each other:

* partition_bijection(blocks_b, blocks_c, x) aligns two partitions of one
  ground set into k equal-sized blocks so every matched pair of blocks
  intersects in at least x elements (a direct application of maximum
  bipartite matching; the guarantee kicks in once the ground set has
  k^3 * x elements).
* factorization_subset extracts, from r+1 permutations of an alphabet of
  size d0*d1^2*...*dr^2, a subset B of size d0 whose equal-length projection
  blocks line up alphabet-for-alphabet between consecutive permutations.
  The construction walks levels coarse-to-fine, applying the block matching
  at each level and keeping only matched intersections.
* find_attack_structure combines the structure-certificate search with the
  subset extraction to produce the (B, p, splits) certificates that drive
  the multicollision attack: each part condenses to a permutation of B and
  the block alphabets nest level to level.  When the search decides p = 2,
  the certificate is re-cut so that B is the word's rightmost run of
  second occurrences of twice-occurring letters: the level-2 spans then
  hold no filler block, which a collapse-level candidate would walk.

Every certificate is re-verified by pure recomputation before it is
returned; a failure of the guaranteed construction raises ConstructionError
instead of returning anything unverified.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterator, Optional, Sequence

from .regularity import (
    StructureCertificate,
    capped_power,
    find_structure,
    structure_threshold,
    verify_structure,
)
from .words import (
    Word,
    condense,
    equal_blocks,
    integers,
    is_permutation,
    project,
    require_int,
    spans,
    split_word,
)


class ConstructionError(RuntimeError):
    """A construction the theory guarantees has failed; this is a defect in
    the inputs or the implementation, never a legitimate result."""


def partition_bijection(blocks_b: Sequence[frozenset], blocks_c: Sequence[frozenset],
                        x: int) -> Optional[tuple[int, ...]]:
    """Bijection sigma (as a tuple, sigma[i] = j) with
    |blocks_b[i] & blocks_c[sigma(i)]| >= x for every i, or None when no
    perfect matching exists.

    blocks_b and blocks_c must partition one ground set, the union of
    blocks_b, into equally many blocks of one size, and x must be a positive
    integer; anything else raises ValueError (TypeError for a non-integer
    x).  Found by augmenting-path matching on the graph with an edge (i, j)
    iff the intersection is large enough; blocks are tried in index order
    and free partners are preferred, which fixes the returned bijection.
    """
    k = len(blocks_b)
    if k == 0 or len(blocks_c) != k:
        raise ValueError("both partitions must have the same nonzero block count")
    require_int(x, "intersection target x")
    if len({len(block) for block in (*blocks_b, *blocks_c)}) != 1:
        raise ValueError("all blocks must have equal size")
    ground = frozenset().union(*blocks_b)
    if len(ground) != k * len(blocks_b[0]) or frozenset().union(*blocks_c) != ground:
        raise ValueError("blocks must partition the ground set")
    column = {e: j for j, block in enumerate(blocks_c) for e in block}
    adjacency = [
        sorted(j for j, size in Counter(column[e] for e in block).items() if size >= x)
        for block in blocks_b
    ]
    matched_to: dict[int, int] = {}

    def free_partner(row: int) -> Optional[int]:
        return next((j for j in adjacency[row] if j not in matched_to), None)

    def place(root: int) -> bool:
        # Depth-first augmenting-path search from `root`, on an explicit
        # stack so that a path through all k rows cannot hit the recursion
        # limit: a row takes a free partner if it has one, else tries in
        # turn to move the row holding each partner not yet visited.
        visited: set = set()
        stack = [(root, iter(adjacency[root]))]
        via: list = []  # via[d]: the partner stack[d]'s row takes on success
        free = free_partner(root)
        while free is None:
            partner = next((j for j in stack[-1][1] if j not in visited), None)
            if partner is None:
                stack.pop()
                if not stack:
                    return False
                via.pop()
                continue
            visited.add(partner)
            via.append(partner)
            row = matched_to[partner]
            stack.append((row, iter(adjacency[row])))
            free = free_partner(row)
        for (row, _), partner in zip(stack, via + [free]):
            matched_to[partner] = row
        return True

    for i in range(k):
        if not place(i):
            return None
    sigma = [0] * k
    for j, i in matched_to.items():
        sigma[i] = j
    result = tuple(sigma)
    for i in range(k):
        if len(blocks_b[i] & blocks_c[result[i]]) < x:
            raise ConstructionError("matching returned a pair below the intersection target")
    return result


def _validate_factorization_inputs(perms: Sequence[Word], d: Sequence[int]):
    d = tuple(d)
    if len(d) < 2:
        raise ValueError("need at least two divisors d0, d1")
    for i, x in enumerate(d):
        require_int(x, f"divisor d[{i}]")
    for i in range(1, len(d)):
        if d[i - 1] % d[i]:
            raise ValueError(f"d[{i}] = {d[i]} does not divide d[{i - 1}] = {d[i - 1]}")
    r = len(d) - 1
    perms = tuple(tuple(w) for w in perms)
    if len(perms) != r + 1:
        raise ValueError(f"expected {r + 1} permutations for r = {r}, got {len(perms)}")
    alphabet = frozenset(perms[0])
    expected = d[0] * math.prod(d[1:]) ** 2
    if len(alphabet) != expected:
        raise ValueError(f"alphabet size {len(alphabet)} != required {expected}")
    for w in perms:
        if not is_permutation(w, alphabet):
            raise ValueError("every input word must be a permutation of the same alphabet")
    return perms, d, alphabet


def factorization_subset(perms: Sequence[Word], d: Sequence[int]) -> tuple[int, ...]:
    """Select B with |B| = d[0] whose projection blocks align between every
    consecutive pair of the given permutations; B is returned in the order
    of the first permutation and is the whole certificate.

    Levels are processed from the coarsest granularity d[r] down to d[1]; at
    each level the two block partitions are matched and exactly the needed
    number of symbols is kept from each matched intersection, in order of
    appearance in the left word.  The arithmetic of the preconditions makes
    every matching exist, so a matching failure aborts loudly.
    """
    perms, d, alphabet = _validate_factorization_inputs(perms, d)
    kept = alphabet
    for i in range(len(d) - 1, 0, -1):
        take = len(kept) // d[i] ** 3  # per block: kept holds d0 * (d1...di)^2 letters
        left_blocks = equal_blocks(project(perms[i - 1], kept), d[i])
        blocks_b = tuple(frozenset(b) for b in left_blocks)
        blocks_c = tuple(frozenset(b) for b in equal_blocks(project(perms[i], kept), d[i]))
        sigma = partition_bijection(blocks_b, blocks_c, take)
        if sigma is None:
            raise ConstructionError(
                f"no block matching at level {i} despite satisfied preconditions")
        survivors = set()
        for j in range(d[i]):
            allowed = blocks_b[j] & blocks_c[sigma[j]]
            picked = [a for a in left_blocks[j] if a in allowed][:take]
            survivors.update(picked)
        kept = frozenset(survivors)
    subset = tuple(a for a in perms[0] if a in kept)
    if not verify_nesting(perms, d, subset):
        raise ConstructionError("constructed subset failed verification")
    return subset


def verify_nesting(perms: Sequence[Word], d: Sequence[int], subset: Sequence[int]) -> bool:
    """Check a subset B by recomputation only; never raises on bad input.

    B must be d[0] distinct letters of the alphabet; at each level i the
    d[i] projection blocks of perms[i-1] on B must have the same alphabets
    as those of perms[i]; and each of the last permutation's d[-1] blocks
    must hold d[0] / d[-1] letters of B.
    """
    try:
        perms, d, alphabet = _validate_factorization_inputs(perms, d)
        subset = tuple(subset)
        bset = set(subset)
    except (ValueError, TypeError):
        return False
    if len(bset) != len(subset) or len(bset) != d[0] or not bset <= alphabet:
        return False
    for left, right, count in zip(perms, perms[1:], d[1:]):
        right_alphabets = [set(b) for b in equal_blocks(project(right, bset), count)]
        for block in equal_blocks(project(left, bset), count):
            if set(block) not in right_alphabets:
                return False
    size = d[0] // d[-1]
    return all(len(project(u, bset)) == size for u in equal_blocks(perms[-1], d[-1]))


# -- attack structure ----------------------------------------------------------

@dataclass(frozen=True)
class AttackCertificate(StructureCertificate):
    """Structure certificate of B that drives the staged multicollision
    attack on hash length n for a 2^k-collision: the word cut at `splits`
    into p parts condenses, on B (the subalphabet), to permutations whose
    block alphabets nest from each level into the next.  Its file names
    the subalphabet "B"."""

    n: int
    k: int

    def to_dict(self) -> dict:
        return {
            "B": list(self.subalphabet),
            "p": self.p,
            "splits": list(self.splits),
            "n": self.n,
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttackCertificate":
        """Inverse of to_dict; raises ValueError on a non-integer field."""
        p, n, k = integers([data["p"], data["n"], data["k"]])
        return cls(integers(data["B"]), p, integers(data["splits"]), n, k)


def level_blocks(n: int, k: int, p: int) -> tuple[int, ...]:
    """Block counts n^(p-i) * k of levels i = 1..p of an attack certificate:
    level 1 cuts its condensed part into |B| = n^(p-1) * k singletons."""
    require_int(n, "hash length n")
    require_int(k, "collision exponent k")
    require_int(p, "part count p")
    return tuple(n ** (p - i) * k for i in range(1, p + 1))


def level_layout(w: Word, cert: AttackCertificate) -> Iterator[tuple[Word, tuple[Word, ...]]]:
    """(part, blocks) for each level of an attack certificate, level 1
    first: the level's part of w, cut at the certificate's splits, and its
    condensation on B cut into level_blocks(n, k, p) equal blocks."""
    for part, count in zip(split_word(w, cert.splits), level_blocks(cert.n, cert.k, cert.p)):
        yield part, equal_blocks(condense(part, cert.subalphabet), count)


def _subset_request(n: int, k: int, p: int, *, at_most: Optional[int] = None) -> int:
    # Size of the structure subalphabet that lets us carve out B for a given
    # part count: B is taken directly for p <= 2, n^(p-1) * k letters, via
    # factorization_subset for p >= 3, whose alphabet precondition
    # d0 * d1^2 * ... * d(p-1)^2 over level_blocks(n, k, p) is
    # n^((p-1)^2) * k^(2p-1).  It grows with p, so p = q is the largest
    # request a q-bounded word can need.  With `at_most`, the smaller of the
    # request and the cap, neither power built far past the cap.
    n_exp, k_exp = (p - 1, 1) if p <= 2 else ((p - 1) ** 2, 2 * p - 1)
    return capped_power(capped_power(n, n_exp, at_most) * capped_power(k, k_exp, at_most),
                        1, at_most)


def attack_threshold(n: int, k: int, q: int, *, at_most: Optional[int] = None) -> int:
    """Alphabet size of the schedule word above which the attack-structure
    construction is guaranteed to succeed (exact for q <= 2).  With
    `at_most`, the smaller of the two, built no larger than `at_most`
    (the threshold is at least the request, so capping the request first
    leaves the capped threshold unchanged).  Rejects n, k or q below 1 or
    not an integer (require_int)."""
    require_int(n, "hash length n")
    require_int(k, "collision exponent k")
    require_int(q, "occurrence bound q")
    request = _subset_request(n, k, q, at_most=at_most)
    return structure_threshold(request, q, at_most=at_most)


def _filler_free_run(w: Word, size: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(B, splits) of a p = 2 certificate whose level-2 spans hold no
    filler, or None when w has no such run: B is the rightmost run of
    `size` consecutive positions that each hold the second of exactly two
    occurrences of their letter, in first-occurrence order, and w is cut
    just after the latest first occurrence of a letter of B.  Every first
    occurrence of a letter of B lies before the run, so each letter of B
    occurs once in each part."""
    counts = Counter(w)
    first, _ = spans(w)
    run = 0
    for i in range(len(w) - 1, -1, -1):
        run = run + 1 if counts[w[i]] == 2 and first[w[i]] < i else 0
        if run == size:
            letters = sorted(w[i:i + size], key=first.__getitem__)
            return tuple(letters), (first[letters[-1]] + 1,)
    return None


def find_attack_structure(w: Word, n: int, k: int, q: int) -> AttackCertificate:
    """Produce a verified attack certificate for a q-bounded word.

    Success is guaranteed once the word's alphabet reaches
    attack_threshold(n, k, q); a failed search above that threshold is a
    defect and aborts loudly.  Smaller alphabets are still attempted (the
    structure may be present by construction), but a failure there is an
    ordinary refusal.  find_structure rejects a word that is not q-bounded.

    Pipeline: exhaustive structure search for a large subalphabet A, then
    B by the part count p of that decision, in first-occurrence order:

    * p = 1: the first |B| letters of A, under A's splits;
    * p = 2: the word's rightmost run of |B| second occurrences, re-cut
      (_filler_free_run).  No two letters of B conflict, and at p = 2 the
      nesting condition is automatic.  Each level-2 span is a run of B's
      letters, so none holds a filler block: the least "positions inside
      later-level spans holding a letter outside B" of any certificate.
      A word without such a run is treated as at p = 1;
    * p >= 3: factorization_subset's B, in the order of the condensed first
      part, which holds every letter of A, under A's splits.
    """
    require_int(n, "hash length n")
    require_int(k, "collision exponent k")
    require_int(q, "occurrence bound q")
    w = tuple(w)
    size = len(set(w))
    # a request past the alphabet is refused by find_structure without a
    # search, after its own input checks, so it need not be built in full
    request = _subset_request(n, k, q, at_most=size + 1)
    outcome = find_structure(w, request, q)
    if outcome.certificate is None:
        if size < request:
            raise ValueError(
                f"alphabet size {size} is too small for the subalphabet that "
                f"(n={n}, k={k}, q={q}) needs")
        if size >= attack_threshold(n, k, q, at_most=size + 1):
            raise ConstructionError(
                "structure search failed above the guaranteed threshold")
        raise ValueError(
            f"no attack structure found; alphabet size {size} is below "
            f"the guaranteed threshold for (n={n}, k={k}, q={q})")
    base = outcome.certificate
    p, splits = base.p, base.splits
    size = level_blocks(n, k, p)[0]
    compact = _filler_free_run(w, size) if p == 2 else None

    if compact is not None:
        chosen, splits = compact
    elif p <= 2:
        chosen = base.subalphabet[:size]
    else:
        tset = set(base.subalphabet[: _subset_request(n, k, p)])
        level_words = [condense(part, tset) for part in split_word(w, splits)]
        chosen = factorization_subset(level_words, level_blocks(n, k, p))

    cert = AttackCertificate(chosen, p, splits, n, k)
    if not verify_attack_structure(w, cert):
        raise ConstructionError("attack certificate failed verification")
    return cert


def verify_attack_structure(w: Word, cert: AttackCertificate) -> bool:
    """Recompute every condition of an attack certificate.

    Reads n and k from the certificate and checks that they are positive
    integers, that (B, p, splits) is a structure certificate with
    |B| = n^(p-1) * k, so each part condenses to a permutation of B, and
    that for each pair of consecutive levels, cut into blocks by
    level_layout, every block alphabet of the finer level lies inside some
    block alphabet of the coarser one.
    """
    try:
        w = tuple(w)
        subset = tuple(cert.subalphabet)
        p, n, k = map(operator.index, (cert.p, cert.n, cert.k))
        cert = AttackCertificate(subset, p, tuple(map(operator.index, cert.splits)), n, k)
    except (TypeError, AttributeError, ValueError):
        return False
    if n < 1 or k < 1:
        return False
    # the structure check bounds p by the word's length, and |B| >= 2^(p-1)
    # (n >= 2) bounds it by log |B|, before any power of n is built
    if not verify_structure(w, cert, len(subset)):
        return False
    if n > 1 and len(subset) >> (p - 1) == 0:
        return False
    if level_blocks(n, k, p)[0] != len(subset):
        return False
    layout = level_layout(w, cert)
    for (_, fine), (_, coarse) in pairwise(layout):
        coarse_alphabets = [set(u) for u in coarse]
        for block in fine:
            if not any(set(block) <= u for u in coarse_alphabets):
                return False
    return True
