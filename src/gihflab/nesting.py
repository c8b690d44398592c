"""Nested block structure shared by several permutations of one alphabet.

Three layers build on each other:

* partition_bijection aligns two equal-sized partitions of a ground set so
  every matched pair of blocks intersects in at least x elements (a direct
  application of maximum bipartite matching; the guarantee kicks in once the
  ground set has k^3 * x elements).
* factorization_subset extracts, from r+1 permutations of an alphabet of
  size d0*d1^2*...*dr^2, a subset B of size d0 whose equal-length projection
  blocks line up alphabet-for-alphabet between consecutive permutations.
  The construction walks levels coarse-to-fine, applying the block matching
  at each level and keeping only matched intersections.
* find_attack_structure combines the structure-certificate search with the
  subset extraction to produce the (B, p, splits) certificates that drive
  the multicollision attack: each part condenses to a permutation of B and
  the block alphabets nest level to level.

Every certificate is re-verified by pure recomputation before it is
returned; a failure of the guaranteed construction raises ConstructionError
instead of returning anything unverified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .regularity import (
    StructureCertificate,
    find_structure,
    structure_threshold,
    verify_structure,
)
from .words import (
    Word,
    condense,
    equal_blocks,
    first_occurrence_order,
    is_permutation,
    project,
    split_word,
    word_stats,
)


class ConstructionError(RuntimeError):
    """A construction the theory guarantees has failed; this is a defect in
    the inputs or the implementation, never a legitimate result."""


@dataclass(frozen=True)
class PartitionPair:
    """Two partitions of the same ground set into k equal-sized blocks, plus
    the intersection target x."""

    ground: frozenset
    blocks_b: tuple[frozenset, ...]
    blocks_c: tuple[frozenset, ...]
    x: int

    def validate(self) -> None:
        k = len(self.blocks_b)
        if k == 0 or len(self.blocks_c) != k:
            raise ValueError("both partitions must have the same nonzero block count")
        if self.x < 1:
            raise ValueError("intersection target x must be >= 1")
        sizes = {len(b) for b in self.blocks_b} | {len(c) for c in self.blocks_c}
        if len(sizes) != 1:
            raise ValueError("all blocks must have equal size")
        for family in (self.blocks_b, self.blocks_c):
            union = set()
            total = 0
            for block in family:
                union |= block
                total += len(block)
            if union != set(self.ground) or total != len(self.ground):
                raise ValueError("blocks must partition the ground set")


def partition_bijection(pair: PartitionPair) -> Optional[tuple[int, ...]]:
    """Bijection sigma (as a tuple, sigma[i] = j) with
    |blocks_b[i] & blocks_c[sigma(i)]| >= x for every i, or None when no
    perfect matching exists.

    Found by augmenting-path matching on the graph with an edge (i, j) iff
    the intersection is large enough; blocks are tried in index order and
    free partners are preferred, which fixes the returned bijection.
    """
    pair.validate()
    k = len(pair.blocks_b)
    column = {e: j for j, block in enumerate(pair.blocks_c) for e in block}
    adjacency = [
        sorted(j for j, size in Counter(column[e] for e in block).items() if size >= pair.x)
        for block in pair.blocks_b
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
        if len(pair.blocks_b[i] & pair.blocks_c[result[i]]) < pair.x:
            raise ConstructionError("matching returned a pair below the intersection target")
    return result


@dataclass(frozen=True)
class LevelFactorization:
    """Equal-length projection blocks of two consecutive permutations at one
    granularity; block alphabets must match pairwise."""

    d: int
    left_blocks: tuple[Word, ...]
    right_blocks: tuple[Word, ...]


@dataclass(frozen=True)
class NestingCertificate:
    """Subset B plus the per-level projection blocks it induces, together
    with the projections of the final permutation's coarse blocks."""

    subalphabet: tuple[int, ...]
    levels: tuple[LevelFactorization, ...]
    final_blocks: tuple[Word, ...]

    def to_dict(self) -> dict:
        return {
            "B": list(self.subalphabet),
            "levels": [
                {
                    "d": lev.d,
                    "left_blocks": [list(b) for b in lev.left_blocks],
                    "right_blocks": [list(b) for b in lev.right_blocks],
                }
                for lev in self.levels
            ],
            "final_blocks": [list(b) for b in self.final_blocks],
        }


def _validate_factorization_inputs(perms: Sequence[Word], d: Sequence[int]):
    d = tuple(int(x) for x in d)
    if len(d) < 2:
        raise ValueError("need at least two divisors d0, d1")
    if any(x < 1 for x in d):
        raise ValueError("divisors must be positive")
    for i in range(1, len(d)):
        if d[i - 1] % d[i]:
            raise ValueError(f"d[{i}] = {d[i]} does not divide d[{i - 1}] = {d[i - 1]}")
    r = len(d) - 1
    perms = tuple(tuple(w) for w in perms)
    if len(perms) != r + 1:
        raise ValueError(f"expected {r + 1} permutations for r = {r}, got {len(perms)}")
    alphabet = frozenset(perms[0])
    expected = d[0]
    for x in d[1:]:
        expected *= x * x
    if len(alphabet) != expected:
        raise ValueError(f"alphabet size {len(alphabet)} != required {expected}")
    for w in perms:
        if not is_permutation(w, alphabet):
            raise ValueError("every input word must be a permutation of the same alphabet")
    return perms, d, alphabet


def _certificate_for(perms, d, subset) -> NestingCertificate:
    r = len(d) - 1
    bset = set(subset)
    levels = []
    for i in range(1, r + 1):
        levels.append(LevelFactorization(
            d=d[i],
            left_blocks=equal_blocks(project(perms[i - 1], bset), d[i]),
            right_blocks=equal_blocks(project(perms[i], bset), d[i]),
        ))
    coarse = equal_blocks(perms[r], d[r])
    final = tuple(project(u, bset) for u in coarse)
    return NestingCertificate(tuple(subset), tuple(levels), final)


def factorization_subset(perms: Sequence[Word], d: Sequence[int]) -> NestingCertificate:
    """Select B with |B| = d[0] whose projection blocks align between every
    consecutive pair of the given permutations.

    Levels are processed from the coarsest granularity d[r] down to d[1]; at
    each level the two block partitions are matched and exactly the needed
    number of symbols is kept from each matched intersection, in order of
    appearance in the left word.  The arithmetic of the preconditions makes
    every matching exist, so a matching failure aborts loudly.
    """
    perms, d, alphabet = _validate_factorization_inputs(perms, d)
    r = len(d) - 1
    kept = alphabet
    for i in range(r, 0, -1):
        target = d[0]
        for j in range(1, i):
            target *= d[j] * d[j]
        take = target // d[i]
        left = project(perms[i - 1], kept)
        right = project(perms[i], kept)
        left_blocks = equal_blocks(left, d[i])
        right_blocks = equal_blocks(right, d[i])
        pair = PartitionPair(
            ground=kept,
            blocks_b=tuple(frozenset(b) for b in left_blocks),
            blocks_c=tuple(frozenset(b) for b in right_blocks),
            x=take,
        )
        sigma = partition_bijection(pair)
        if sigma is None:
            raise ConstructionError(
                f"no block matching at level {i} despite satisfied preconditions")
        survivors = set()
        for j in range(d[i]):
            allowed = pair.blocks_b[j] & pair.blocks_c[sigma[j]]
            picked = [a for a in left_blocks[j] if a in allowed][:take]
            survivors.update(picked)
        kept = frozenset(survivors)
    ordered = tuple(a for a in perms[0] if a in kept)
    cert = _certificate_for(perms, d, ordered)
    if not verify_nesting(perms, d, cert):
        raise ConstructionError("constructed subset failed verification")
    return cert


def verify_nesting(perms: Sequence[Word], d: Sequence[int],
                   cert: NestingCertificate) -> bool:
    """Recompute all projections and factorizations claimed by the
    certificate and check the alignment conditions exactly."""
    try:
        perms, d, alphabet = _validate_factorization_inputs(perms, d)
        subset = tuple(cert.subalphabet)
    except (ValueError, TypeError, AttributeError):
        return False
    bset = set(subset)
    if len(bset) != len(subset) or len(bset) != d[0] or not bset <= alphabet:
        return False
    try:
        recomputed = _certificate_for(perms, d, subset)
    except ValueError:
        return False
    if recomputed.levels != tuple(cert.levels) or recomputed.final_blocks != tuple(cert.final_blocks):
        return False
    for level in recomputed.levels:
        right_alphabets = [set(b) for b in level.right_blocks]
        for block in level.left_blocks:
            if not any(set(block) == other for other in right_alphabets):
                return False
    size = d[0] // d[-1]
    if any(len(b) != size for b in recomputed.final_blocks):
        return False
    return True


# -- attack structure ----------------------------------------------------------

@dataclass(frozen=True)
class AttackCertificate:
    """Certificate driving the staged multicollision attack: the word cut at
    `splits` into p parts condenses, on B, to permutations whose block
    alphabets nest from each level into the next."""

    subalphabet: tuple[int, ...]
    p: int
    splits: tuple[int, ...]
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
        return cls(tuple(data["B"]), int(data["p"]), tuple(data["splits"]),
                   int(data["n"]), int(data["k"]))


def _subset_request(n: int, k: int, p: int) -> int:
    # Size of the structure subalphabet that lets us carve out B for a given
    # part count: B is taken directly for p <= 2, via factorization_subset
    # (whose alphabet precondition is the product below) for p >= 3.
    if p <= 2:
        return n ** (p - 1) * k
    size = n ** (p - 1) * k
    for i in range(1, p):
        size *= (n ** (p - 1 - i) * k) ** 2
    return size


def attack_threshold(n: int, k: int, q: int) -> int:
    """Alphabet size of the schedule word above which the attack-structure
    construction is guaranteed to succeed (exact for q <= 2)."""
    if n < 1 or k < 1 or q < 1:
        raise ValueError("n, k and q must be >= 1")
    request = max(_subset_request(n, k, p) for p in range(1, q + 1))
    return structure_threshold(request, q)


def find_attack_structure(w: Word, n: int, k: int, q: int) -> AttackCertificate:
    """Produce a verified attack certificate for a q-bounded word.

    Success is guaranteed once the word's alphabet reaches
    attack_threshold(n, k, q); a failed search above that threshold is a
    defect and aborts loudly.  Smaller alphabets are still attempted (the
    structure may be present by construction), but a failure there is an
    ordinary refusal naming the guaranteed threshold.

    Pipeline: exhaustive structure search for a large subalphabet A, then
    either a direct prefix of A (p <= 2, where the nesting condition is
    automatic) or factorization_subset on the condensed permutations
    (p >= 3).  Symbols are always taken in first-occurrence order.
    """
    if n < 1 or k < 1 or q < 1:
        raise ValueError("n, k and q must be >= 1")
    w = tuple(w)
    stats = word_stats(w)
    if stats.max_count > q:
        raise ValueError(f"word is not {q}-bounded (max occurrence count {stats.max_count})")
    needed = attack_threshold(n, k, q)
    request = max(_subset_request(n, k, p) for p in range(1, q + 1))
    if len(stats.alphabet) < request:
        raise ValueError(
            f"alphabet size {len(stats.alphabet)} cannot host a size-{request} "
            f"subalphabet; the guaranteed threshold for (n={n}, k={k}, q={q}) is {needed}")

    outcome = find_structure(w, request, q, "exhaustive")
    if outcome.certificate is None:
        if len(stats.alphabet) >= needed:
            raise ConstructionError(
                "structure search failed above the guaranteed threshold")
        raise ValueError(
            f"no attack structure found; alphabet size {len(stats.alphabet)} is below "
            f"the guaranteed threshold {needed} for (n={n}, k={k}, q={q})")
    base = outcome.certificate
    parts = split_word(w, base.splits)
    p = base.p

    if p <= 2:
        chosen = base.subalphabet[: n ** (p - 1) * k]
    else:
        size = _subset_request(n, k, p)
        trimmed = base.subalphabet[:size]
        tset = set(trimmed)
        level_words = [condense(part, tset) for part in parts]
        divisors = [n ** (p - 1 - i) * k for i in range(p)]
        nested = factorization_subset(level_words, divisors)
        members = set(nested.subalphabet)
        chosen = tuple(a for a in first_occurrence_order(w) if a in members)

    cert = AttackCertificate(tuple(chosen), p, base.splits, n, k)
    if not verify_attack_structure(w, n, k, cert):
        raise ConstructionError("attack certificate failed verification")
    return cert


def verify_attack_structure(w: Word, n: int, k: int, cert: AttackCertificate) -> bool:
    """Recompute every condition of an attack certificate.

    Checks that (B, p, splits) is a structure certificate with
    |B| = n^(p-1) * k, so each part condenses to a permutation of B, and
    that cutting level i into n^(p-i)*k blocks of length n^(i-1) and
    level i+1 into n^(p-i-1)*k blocks of length n^i sends every block
    alphabet of the former into some block alphabet of the latter.
    """
    try:
        w = tuple(w)
        subset = tuple(cert.subalphabet)
        p = int(cert.p)
        splits = tuple(cert.splits)
        if int(cert.n) != n or int(cert.k) != k:
            return False
    except (TypeError, AttributeError, ValueError):
        return False
    # the split count bounds p before n^(p-1) is computed, so a hostile p
    # never builds a huge integer
    if n < 1 or k < 1 or p != len(splits) + 1:
        return False
    if not verify_structure(w, StructureCertificate(subset, p, splits), n ** (p - 1) * k):
        return False
    bset = set(subset)
    condensed = [condense(part, bset) for part in split_word(w, splits)]
    for i in range(1, p):
        fine = equal_blocks(condensed[i - 1], n ** (p - i) * k)
        coarse = equal_blocks(condensed[i], n ** (p - i - 1) * k)
        coarse_alphabets = [set(u) for u in coarse]
        for block in fine:
            if not any(set(block) <= u for u in coarse_alphabets):
                return False
    return True
