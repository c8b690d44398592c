"""Shared generators and independent brute-force oracles for the tests.

The brute-force implementations here deliberately avoid the library's search
code paths: they enumerate raw (subset, p, splits) triples, index subsets,
or cut tuples directly, so agreement tests actually cross-check two
independent routes.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from gihflab.regularity import StructureCertificate, verify_structure
from gihflab.words import split_word


def random_bounded_word(rng: random.Random, alphabet_size: int, q: int,
                        exact_alphabet: bool = True):
    """Random q-bounded word; with exact_alphabet every letter appears."""
    pool = []
    for letter in range(1, alphabet_size + 1):
        low = 1 if exact_alphabet else 0
        pool.extend([letter] * rng.randint(low, q))
    if not pool:
        pool = [1]
    rng.shuffle(pool)
    return tuple(pool)


def random_two_permutation_word(rng: random.Random, alphabet_size: int):
    """Concatenation of two independent random permutations of {1..size}."""
    letters = list(range(1, alphabet_size + 1))
    first = letters[:]
    rng.shuffle(first)
    second = letters[:]
    rng.shuffle(second)
    return tuple(first) + tuple(second)


def brute_force_cadence_exists(w, s: int) -> bool:
    """Arithmetic cadence existence by enumerating all index subsets."""
    if s == 1:
        return len(w) >= 1
    for positions in combinations(range(1, len(w) + 1), s):
        if len({w[p - 1] for p in positions}) != 1:
            continue
        gaps = {positions[i + 1] - positions[i] for i in range(s - 1)}
        if len(gaps) == 1:
            return True
    return False


def brute_force_n_division_exists(w, n: int) -> bool:
    """n-division existence via nested cut loops and Python tuple order."""
    w = tuple(w)
    identity = tuple(range(n))

    def shuffled(cuts, sigma):
        out = list(w[:cuts[0]])
        for i in sigma:
            out.extend(w[cuts[i]:cuts[i + 1]])
        out.extend(w[cuts[-1]:])
        return tuple(out)

    for cuts in combinations(range(len(w) + 1), n + 1):
        if all(w < shuffled(cuts, sigma)
               for sigma in permutations(range(n)) if sigma != identity):
            return True
    return False


def brute_force_structure(w, m: int, q: int):
    """Directly enumerate every (subset, p, splits) triple and run the
    checker; returns a passing certificate or None."""
    w = tuple(w)
    letters = sorted(set(w))
    for p in range(1, q + 1):
        for splits in combinations(range(1, len(w)), p - 1):
            for subset in combinations(letters, m):
                cert = StructureCertificate(subset, p, splits)
                if verify_structure(w, cert, m):
                    return cert
    return None


def random_equal_partition(rng: random.Random, ground, k: int):
    """Shuffle the ground set and cut it into k equal blocks."""
    items = list(ground)
    rng.shuffle(items)
    size = len(items) // k
    return tuple(frozenset(items[i * size:(i + 1) * size]) for i in range(k))


def random_divisor_chain(rng: random.Random, d0_max: int, r: int):
    """d_0 <= d0_max followed by r successive divisors."""
    chain = [rng.randint(1, d0_max)]
    for _ in range(r):
        divisors = [d for d in range(1, chain[-1] + 1) if chain[-1] % d == 0]
        chain.append(rng.choice(divisors))
    return chain


def random_permutations_of(rng: random.Random, alphabet_size: int, count: int):
    letters = list(range(1, alphabet_size + 1))
    out = []
    for _ in range(count):
        perm = letters[:]
        rng.shuffle(perm)
        out.append(tuple(perm))
    return out


def certificate_parts(w, cert: StructureCertificate):
    return split_word(tuple(w), cert.splits)


def enumerated_digests(oracle, alpha, h0: int, mc):
    """Digest of every expanded message, each hashed block by block along
    alpha on its own, without the verifier's one-pass frontier."""
    out = []
    for message in mc.messages():
        state = h0
        for position in alpha:
            state = oracle.compress(state, message[position - 1])
        out.append(state)
    return out
