"""Shared generators and independent brute-force oracles for the tests.

The brute-force implementations here deliberately avoid the library's search
code paths: they enumerate raw (subset, p, splits) triples, index subsets,
or cut tuples directly, so agreement tests actually cross-check two
independent routes.  One exception: plain_structure shares the library's
span-mask kernel, regularity._span_conflicts (which TestSpanConflicts checks
against reference_conflicts), so it cross-checks only the search's prunes
and its order.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, groupby, permutations

from gihflab.attacks import CollisionGroup
from gihflab.hashsim import BlockSampler, derive_seed, f_plus, mix64
from gihflab.nesting import (
    AttackCertificate,
    _subset_request,
    factorization_subset,
    level_blocks,
)
from gihflab.regularity import (
    StructureCertificate,
    _span_conflicts,
    find_structure,
    verify_structure,
)
from gihflab.words import (
    condense,
    equal_blocks,
    is_permutation,
    project,
    split_word,
)


def is_q_bounded(w, q: int) -> bool:
    """True iff every symbol occurs at most q times in w."""
    return max(Counter(w).values(), default=0) <= q


def canonical_form(w):
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


def reference_integers(values):
    """words.integers as a per-value loop: the values as a tuple, rejecting
    anything whose type is not exactly int."""
    values = tuple(values)
    for value in values:
        if type(value) is not int:
            raise ValueError("fields must hold integers only")
    return values


def reference_word(symbols):
    """words.word by per-symbol generators: int() of every symbol, then a
    rejection if any is negative."""
    w = tuple(int(s) for s in symbols)
    if any(s < 0 for s in w):
        raise ValueError("symbols must be non-negative integers")
    return w


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


def is_cadence_on(w, positions) -> bool:
    """True iff positions are strictly increasing, equally spaced 1-based
    positions of w that all carry one symbol (a lone position is one)."""
    gaps = {b - a for a, b in zip(positions, positions[1:])}
    return (bool(positions) and all(1 <= p <= len(w) for p in positions)
            and len(gaps) <= 1 and min(gaps, default=1) >= 1
            and len({w[p - 1] for p in positions}) == 1)


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


def reference_verify_structure(w, cert, m) -> bool:
    """verify_structure by its definition, field by field: m, p and every
    split are integers; the subalphabet holds m >= 1 distinct letters, each
    equal to a letter of w; p >= 1 with p - 1 splits strictly inside w in
    increasing order; and every part, projected onto the subalphabet and
    condensed, is a permutation of it."""
    w = tuple(w)
    chosen = tuple(cert.subalphabet)
    splits = tuple(cert.splits)
    if not all(isinstance(x, int) for x in (m, cert.p, *splits)):
        return False
    if m < 1 or len(chosen) != m:
        return False
    if any(chosen[i] == chosen[j] for i in range(m) for j in range(i + 1, m)):
        return False
    if not all(any(a == s for s in w) for a in chosen):
        return False
    if cert.p < 1 or len(splits) != cert.p - 1:
        return False
    if any(not 0 < s < len(w) for s in splits):
        return False
    if any(splits[i] >= splits[i + 1] for i in range(len(splits) - 1)):
        return False
    cuts = [0, *splits, len(w)]
    for i in range(cert.p):
        projected = project(w[cuts[i]:cuts[i + 1]], chosen)
        if not is_permutation(condense(projected, chosen), chosen):
            return False
    return True


def admissible_splits(length: int, m: int, q: int):
    """Every split of a word of `length` letters into p <= q parts of at
    least m letters each, by filtering all splits in search order."""
    out = []
    for p in range(1, q + 1):
        for splits in combinations(range(1, length), p - 1):
            cuts = (0, *splits, length)
            if all(b - a >= m for a, b in zip(cuts, cuts[1:])):
                out.append(splits)
    return out


def plain_structure(w, m: int, q: int):
    """The certificate search with neither prune: every split in order, each
    decided by a depth-first search over the span conflict masks for the
    lexicographically first conflict-free m-subset of candidate indices."""
    w = tuple(w)
    order = tuple(dict.fromkeys(w))
    for p in range(1, q + 1):
        for splits in combinations(range(1, len(w)), p - 1):
            cands, masks = _span_conflicts(split_word(w, splits), order, m)
            if masks is None:
                continue
            stack = [((), 0)]  # (chosen indices, first index left to try)
            while stack:
                chosen, start = stack.pop()
                if len(chosen) == m:
                    subset = tuple(cands[i] for i in chosen)
                    return StructureCertificate(subset, p, splits)
                for j in reversed(range(start, len(cands))):
                    if not any(masks[i] >> j & 1 for i in chosen):
                        stack.append((chosen + (j,), j + 1))
    return None


def reference_conflicts(parts, cands):
    """Pairwise conflict relation over candidate indices, by its definition:
    candidates a and b conflict when, in some part, b occurs strictly
    between the first and last occurrence of a (or a inside b's span)."""
    conflicts = [set() for _ in cands]
    for part in parts:
        positions = {a: [i for i, s in enumerate(part) if s == a] for a in cands}
        for i, a in enumerate(cands):
            lo, hi = positions[a][0], positions[a][-1]
            for j, b in enumerate(cands):
                if j != i and any(lo < x < hi for x in positions[b]):
                    conflicts[i].add(j)
                    conflicts[j].add(i)
    return conflicts


def reference_decision(parts, m: int) -> str:
    """The kind of decision find_structure records for a split into parts,
    by its definition: "candidates" when fewer than m letters occur in every
    part; "degree" when, of the c letters that do, the m-th smallest number
    of conflicts exceeds c - m; "growth" when no m of them are pairwise
    conflict-free; otherwise "certificate"."""
    common = set(parts[0]).intersection(*parts[1:])
    if len(common) < m:
        return "candidates"
    conflicts = reference_conflicts(parts, sorted(common))
    if sorted(map(len, conflicts))[m - 1] > len(common) - m:
        return "degree"
    for subset in combinations(range(len(common)), m):
        if all(j not in conflicts[i] for i, j in combinations(subset, 2)):
            return "certificate"
    return "growth"


def lexicographic_attack_certificate(w, n: int, k: int, q: int) -> AttackCertificate:
    """The attack certificate of a p <= 2 structure decision as
    find_structure gives it: the first n^(p-1) k letters of its
    lexicographically first subalphabet, under its splits."""
    base = find_structure(tuple(w), _subset_request(n, k, q), q).certificate
    assert base is not None and base.p <= 2, "no p <= 2 structure decision"
    size = level_blocks(n, k, base.p)[0]
    return AttackCertificate(base.subalphabet[:size], base.p, base.splits, n, k)


def reference_compact_certificate(w, size: int):
    """The filler-free p = 2 certificate by brute force over every cut and
    every window of `size` consecutive positions after it, as (B, splits),
    or None.  A window qualifies when each of its letters occurs exactly
    once before the cut and once after it; the rightmost window wins, then
    the smallest cut.  B lists the window's letters in first-occurrence
    order."""
    w = tuple(w)
    best = None  # ((window start, -cut), B, splits)
    for cut in range(1, len(w)):
        head, tail = Counter(w[:cut]), Counter(w[cut:])
        once = [head[a] == 1 and tail[a] == 1 for a in w[cut:]]
        for start in range(len(once) - size + 1):
            key = (cut + start, -cut)
            if all(once[start:start + size]) and (best is None or key > best[0]):
                window = set(w[cut + start:cut + start + size])
                subset = tuple(a for a in dict.fromkeys(w) if a in window)
                best = (key, subset, (cut,))
    return None if best is None else best[1:]


def filler_estimate(w, cert: AttackCertificate) -> int:
    """Positions inside the spans of levels 2..p that hold a letter outside
    B, the filler blocks a collapse-level candidate walks.  A span runs
    from the first to the last occurrence, in its part, of the letters of
    one of the level's equal blocks of the part condensed onto B."""
    bset = set(cert.subalphabet)
    parts = split_word(tuple(w), cert.splits)
    total = 0
    for part, count in list(zip(parts, level_blocks(cert.n, cert.k, cert.p)))[1:]:
        for block in equal_blocks(condense(part, bset), count):
            reads = [i for i, a in enumerate(part) if a in block]
            total += sum(a not in bset for a in part[reads[0]:reads[-1] + 1])
    return total


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


def three_permutations(n, k):
    """Three shuffled permutations of 1..n^4 k^5, concatenated, and a p = 3
    certificate whose subalphabet B comes from factorization_subset."""
    l = n ** 4 * k ** 5
    rng = random.Random(f"three-permutations:{n}:{k}")
    perms = [rng.sample(range(1, l + 1), l) for _ in range(3)]
    alpha = tuple(perms[0] + perms[1] + perms[2])
    subset = factorization_subset(perms, level_blocks(n, k, 3))
    return alpha, AttackCertificate(subset, 3, (l, 2 * l), n, k)


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


def expanding_frontier_digests(oracle, alpha, h0: int, mc, cap: int):
    """An independent route to attacks._frontier_digests, in up to three
    passes per group read over a dict from the live picks to state sets:
    every group's pick joins the key at its first occurrence, each
    occurrence rebuilds the frontier, and the state sets of its picks merge
    after its last, found by counting reads down, even for a group read
    once.  Same arguments and result: the digest set, or None as soon as
    the frontier would exceed cap (key, state) pairs."""
    compress = oracle.compress
    owner = {pos: (gi, at) for gi, group in enumerate(mc.groups)
             for at, pos in enumerate(group.positions)}
    remaining = Counter(owner[pos][0] for pos in alpha if pos in owner)
    live: list = []  # the groups whose picks make up the key, in key order
    frontier = {(): {h0}}
    for in_group, run in groupby(alpha, owner.__contains__):
        if not in_group:
            blocks = [mc.base_blocks[pos] for pos in run]
            frontier = {key: {f_plus(oracle, state, blocks) for state in states}
                        for key, states in frontier.items()}
            continue
        for pos in run:
            gi, at = owner[pos]
            choices = mc.groups[gi].choices
            if gi not in live:
                if sum(map(len, frontier.values())) * len(choices) > cap:
                    return None
                live.append(gi)
                frontier = {key + (pick,): states for key, states in frontier.items()
                            for pick in range(len(choices))}
            k = live.index(gi)
            frontier = {key: {compress(state, choices[key[k]][at]) for state in states}
                        for key, states in frontier.items()}
            remaining[gi] -= 1
            if not remaining[gi]:
                del live[k]
                merged: dict = {}
                for key, states in frontier.items():
                    merged.setdefault(key[:k] + key[k + 1:], set()).update(states)
                frontier = merged
    return frontier[()]


def reference_compress(seed: int, n: int, h: int, b: int) -> int:
    """The compression oracle's function, transcribed plainly: one mix64
    round on key ^ h, then one per 64-bit chunk of b, low chunk first."""
    acc = mix64(mix64(seed ^ 0x9E3779B97F4A7C15) ^ h)
    while True:
        acc = mix64(acc ^ (b & ((1 << 64) - 1)))
        b >>= 64
        if not b:
            break
    return acc % (1 << n)


def reference_sampler_stream(m: int, seed: int, count: int) -> list:
    """The first `count` blocks of BlockSampler(m, seed), by the affine
    formula (mult * i + offset) mod 2^m."""
    space = 1 << m
    mult = (2 * mix64(seed) + 1) % space
    if mult == 1 and m > 1:
        mult = (mult + 2) % space
    offset = mix64(seed ^ 0xA5A5A5A5A5A5A5A5) % space
    return [(mult * i + offset) % space for i in range(count)]


def reference_table_collision(evaluate, candidates, k: int):
    """hashsim.table_collision as a plain value -> list of candidates table:
    the first list to reach k candidates, or None."""
    buckets = {}
    for candidate in candidates:
        value = evaluate(candidate)
        buckets.setdefault(value, []).append(candidate)
        if len(buckets[value]) == k:
            return tuple(buckets[value]), value
    return None


def reference_joux_pairs(n: int, m: int, seed: int, h0: int, r: int):
    """Joux's chained pairs by a plain loop over the reference sampler
    stream and compression function: per stage, keep value -> first block
    over the next fresh blocks, and the first repeated value gives the
    stage's pair and the next state.  Returns the r pairs (first block,
    second block) and the blocks drawn per stage."""
    # a stage draws at most 2^n + 1 blocks before some value repeats
    stream = iter(reference_sampler_stream(
        m, derive_seed(seed, "joux"), min(1 << m, r * ((1 << n) + 1))))
    pairs, draws, state = [], [], h0
    for _ in range(r):
        first_block, drawn = {}, 0
        while True:
            block = next(stream)
            drawn += 1
            value = reference_compress(seed, n, state, block)
            if value in first_block:
                break
            first_block[value] = block
        pairs.append((first_block[value], block))
        draws.append(drawn)
        state = value
    return pairs, draws


def rewalk_level(oracle, part, units, fillers, state):
    """attacks._walk_level without the shared trail: every candidate hashes
    its unit's span from the span's start, and the collision is the first
    repeated value found by reference_table_collision.  Same arguments and
    result: the level's groups, the part's outgoing state and the distinct
    queries of each search.  A first-level unit's raw sampler blocks become
    one-block choices (b,)."""
    groups, stage_queries, cursor = [], [], 0
    for positions, candidates in units:
        candidates = zip(candidates) if isinstance(candidates, BlockSampler) else candidates
        slots = set(positions)
        reads = [i for i, sym in enumerate(part) if sym in slots]
        begin, end = reads[0], reads[-1] + 1
        for sym in part[cursor:begin]:
            state = oracle.compress(state, fillers[sym])

        def evaluate(choice, start=state, span=part[begin:end], positions=positions):
            picked = dict(zip(positions, choice))
            value = start
            for sym in span:
                value = oracle.compress(value, picked[sym] if sym in picked else fillers[sym])
            return value

        before = oracle.query_count
        found = reference_table_collision(evaluate, candidates, 2)
        assert found is not None, f"no collision among the candidates for {positions}"
        pair, state = found
        stage_queries.append(oracle.query_count - before)
        groups.append(CollisionGroup(positions, pair))
        cursor = end
    for sym in part[cursor:]:
        state = oracle.compress(state, fillers[sym])
    return groups, state, stage_queries
