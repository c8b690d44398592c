import math
import random
import time
from collections import Counter
from itertools import permutations

import pytest

from gihflab import nesting
from gihflab.nesting import (
    AttackCertificate,
    ConstructionError,
    attack_threshold,
    factorization_subset,
    find_attack_structure,
    level_blocks,
    level_layout,
    partition_bijection,
    verify_attack_structure,
    verify_nesting,
)
from gihflab.regularity import structure_threshold
from gihflab.words import condense, equal_blocks, project, split_word

from support import (
    filler_estimate,
    lexicographic_attack_certificate,
    random_divisor_chain,
    random_equal_partition,
    random_permutations_of,
    random_two_permutation_word,
    reference_compact_certificate,
    three_permutations,
)


class TestPartitionBijection:
    def test_single_block(self):
        assert partition_bijection((frozenset({1, 2}),), (frozenset({1, 2}),), 1) == (0,)

    def test_deterministic_identity_pick(self):
        # both bijections are valid here; the free-partner-first rule takes
        # the identity
        assert partition_bijection((frozenset({1, 2}), frozenset({3, 4})),
                                   (frozenset({1, 3}), frozenset({2, 4})), 1) == (0, 1)

    def test_absent_when_intersections_small(self):
        assert partition_bijection((frozenset({1, 2}), frozenset({3, 4})),
                                   (frozenset({1, 3}), frozenset({2, 4})), 2) is None

    def test_needs_augmenting_path(self):
        # first blocks compete for the same partner, forcing a reassignment
        blocks_b = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7}))
        blocks_c = (frozenset({0, 2}), frozenset({1, 3}), frozenset({4, 6}), frozenset({5, 7}))
        sigma = partition_bijection(blocks_b, blocks_c, 1)
        assert sigma is not None
        assert sorted(sigma) == [0, 1, 2, 3]
        for i in range(4):
            assert len(blocks_b[i] & blocks_c[sigma[i]]) >= 1

    @pytest.mark.parametrize("blocks_b,blocks_c,x", [
        (({1},), ({1}, {2}), 1),  # unequal block counts
        ((), (), 1),  # no blocks
        (({1}, {2}), ({1}, {2}), 0),  # no intersection target
        (({1}, {2, 3}), ({1, 2}, {3}), 1),  # unequal block sizes
        (({1, 2}, {2, 3}), ({1, 2}, {2, 3}), 1),  # overlapping blocks
        (({1}, {2}), ({1}, {3}), 1),  # different ground sets
    ], ids=["counts", "empty", "x-0", "sizes", "overlap", "grounds"])
    def test_malformed_pairs_rejected(self, blocks_b, blocks_c, x):
        with pytest.raises(ValueError):
            partition_bijection(tuple(map(frozenset, blocks_b)),
                                tuple(map(frozenset, blocks_c)), x)

    def test_matches_brute_force_existence(self):
        rng = random.Random(12)
        for _ in range(300):
            k, size = rng.randint(1, 5), rng.randint(1, 4)
            ground = frozenset(range(k * size))
            blocks_b = random_equal_partition(rng, ground, k)
            blocks_c = random_equal_partition(rng, ground, k)
            x = rng.randint(1, size)
            exists = any(all(len(blocks_b[i] & blocks_c[sigma[i]]) >= x for i in range(k))
                         for sigma in permutations(range(k)))
            sigma = partition_bijection(blocks_b, blocks_c, x)
            assert (sigma is not None) == exists
            if exists:
                assert sorted(sigma) == list(range(k))

    def test_guarantee_at_cubed_ground(self):
        rng = random.Random(11)
        for _ in range(150):
            k = rng.randint(1, 4)
            x = rng.randint(1, 3)
            ground = frozenset(range(k ** 3 * x))
            blocks_b = random_equal_partition(rng, ground, k)
            blocks_c = random_equal_partition(rng, ground, k)
            sigma = partition_bijection(blocks_b, blocks_c, x)
            assert sigma is not None
            assert all(len(blocks_b[i] & blocks_c[sigma[i]]) >= x for i in range(k))


class TestFactorizationSubset:
    def test_degenerate_two_letters(self):
        subset = factorization_subset([(1, 2), (2, 1)], [2, 1])
        assert set(subset) == {1, 2}

    def test_sixteen_letter_instances(self):
        rng = random.Random(12)
        for _ in range(25):
            perms = random_permutations_of(rng, 16, 2)
            subset = factorization_subset(perms, [4, 2])
            assert len(subset) == 4
            assert verify_nesting(perms, [4, 2], subset)

    def test_uniform_divisor_pairwise_alignment(self):
        # d0=4, d=2, r=2: alphabet of size 4 * 2^4 = 64, three permutations;
        # the kept subset aligns block alphabets between every pair of words
        rng = random.Random(13)
        perms = random_permutations_of(rng, 64, 3)
        subset = factorization_subset(perms, [4, 2, 2])
        assert len(subset) == 4
        assert verify_nesting(perms, [4, 2, 2], subset)
        families = []
        for w in perms:
            blocks = equal_blocks(project(w, set(subset)), 2)
            families.append({frozenset(b) for b in blocks})
        assert families[0] == families[1] == families[2]

    def test_precondition_validation(self):
        with pytest.raises(ValueError):
            factorization_subset([(1, 2), (2, 1)], [2])  # needs d0 and d1
        with pytest.raises(ValueError):
            factorization_subset([(1, 2), (2, 1)], [2, 1, 1])  # word count
        with pytest.raises(ValueError):
            factorization_subset([(1, 2, 3), (3, 2, 1)], [2, 1])  # alphabet size
        with pytest.raises(ValueError):
            factorization_subset([(1, 2), (2, 2)], [2, 1])  # not a permutation
        with pytest.raises(ValueError):
            factorization_subset(random_permutations_of(random.Random(1), 18, 2),
                                 [2, 3])  # 3 does not divide 2

    def test_random_guarantee_suite(self):
        rng = random.Random(14)
        for _ in range(60):
            r = rng.randint(1, 2)
            d = random_divisor_chain(rng, 6, r)
            size = d[0]
            for x in d[1:]:
                size *= x * x
            perms = random_permutations_of(rng, size, r + 1)
            subset = factorization_subset(perms, d)
            assert len(subset) == d[0]
            assert verify_nesting(perms, d, subset)


class TestVerifyNesting:
    def _instance(self):
        rng = random.Random(15)
        perms = random_permutations_of(rng, 16, 2)
        subset = factorization_subset(perms, [4, 2])
        return perms, subset

    def test_round_trip(self):
        perms, subset = self._instance()
        assert verify_nesting(perms, [4, 2], subset)

    def test_rejects_swapped_member(self):
        perms, subset = self._instance()
        assert not verify_nesting(perms, [4, 2], (99,) + subset[1:])

    def test_rejects_unequal_final_blocks(self):
        # B's blocks {1, 2} and {3, 9} align between the two words, but the
        # final word's blocks 1..8 and 9..16 hold 3 and 1 letters of B
        perms = (tuple(range(1, 17)),) * 2
        assert not verify_nesting(perms, [4, 2], (1, 2, 3, 9))
        assert verify_nesting(perms, [4, 2], (1, 2, 9, 10))

    def test_rejects_misaligned_blocks(self):
        # the second word swaps 2 and 9: B's blocks {1, 2} and {9, 10} of
        # the first word meet {1, 9} and {2, 10} in the second, while each
        # final block 1..8 and 9..16 still holds two letters of B
        swapped = (1, 9, 3, 4, 5, 6, 7, 8, 2) + tuple(range(10, 17))
        identity = tuple(range(1, 17))
        assert not verify_nesting((identity, swapped), [4, 2], (1, 2, 9, 10))
        assert verify_nesting((identity, identity), [4, 2], (1, 2, 9, 10))

    def test_rejects_unhashable_and_non_iterable_subsets(self):
        perms, subset = self._instance()
        assert not verify_nesting(perms, [4, 2], ([1],) + subset[1:])
        assert not verify_nesting(perms, [4, 2], 7)

    def test_rejects_wrong_divisors(self):
        perms, subset = self._instance()
        assert not verify_nesting(perms, [4, 1], subset)
        # truncated to (4, 2), the chain was checked and passed
        assert not verify_nesting(perms, (4.9, 2.5), subset)
        with pytest.raises(TypeError, match="divisor d\\[0\\] must be an integer"):
            factorization_subset(perms, (4.9, 2.2))


class TestAttackStructure:
    def test_two_explicit_permutations(self):
        alpha = (1, 2, 3, 4, 2, 1, 4, 3)
        cert = find_attack_structure(alpha, 2, 2, 2)
        assert cert.p == 2
        assert len(cert.subalphabet) == 4
        assert verify_attack_structure(alpha, cert)

    def test_mirror_word_over_57_letters(self):
        l = 57  # boundary alphabet for an 8-letter subalphabet at q=2
        alpha = tuple(range(1, l + 1)) + tuple(range(l, 0, -1))
        cert = find_attack_structure(alpha, 4, 2, 2)
        assert len(cert.subalphabet) in (2, 8)
        assert verify_attack_structure(alpha, cert)

    def test_threshold_values(self):
        assert attack_threshold(2, 2, 1) == 2
        assert attack_threshold(2, 2, 2) == 13
        assert attack_threshold(16, 2, 2) == 993
        assert attack_threshold(8, 2, 2) == 241
        with pytest.raises(ValueError):
            attack_threshold(0, 1, 1)

    @pytest.mark.parametrize("n,k,q,name", [(2.5, 1, 2, "hash length n"),
                                            (8.0, 2, 2, "hash length n"),
                                            (2, 1.0, 2, "collision exponent k"),
                                            (2, 1, 2.0, "occurrence bound q")])
    def test_threshold_rejects_non_integer_sizes(self, n, k, q, name):
        # attack_threshold(2.5, 1, 2) was 4.75
        for cap in (None, 100):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                attack_threshold(n, k, q, at_most=cap)
        # find_attack_structure raised an AttributeError from capped_power
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            find_attack_structure((1, 2, 3, 4, 2, 1, 4, 3), n, k, q)

    def test_request_closed_form_is_the_level_product(self):
        # d0 * d1^2 * ... over level_blocks, the nesting lemma's alphabet,
        # and the largest request over p <= q is the p = q one
        def product(n, k, p):
            d = level_blocks(n, k, p)
            return d[0] if p <= 2 else d[0] * math.prod(d[1:]) ** 2

        for n in range(1, 5):
            for k in range(1, 4):
                for p in range(1, 7):
                    assert nesting._subset_request(n, k, p) == product(n, k, p)
                for q in range(1, 5):
                    request = max(product(n, k, p) for p in range(1, q + 1))
                    assert attack_threshold(n, k, q) == structure_threshold(request, q)

    def test_capped_threshold_builds_no_power(self):
        assert attack_threshold(4, 1, 3, at_most=10 ** 10) == 256 ** 4
        assert attack_threshold(4, 1, 3, at_most=1000) == 1000
        assert attack_threshold(8, 2, 2, at_most=100) == 100
        assert attack_threshold(8, 2, 2, at_most=10 ** 6) == 241
        started = time.perf_counter()
        for q in (64, 3000, 20000):
            assert attack_threshold(4, 1, q, at_most=2_000_002) == 2_000_002
            assert attack_threshold(1, 1, q, at_most=2_000_002) == 1
        assert time.perf_counter() - started < 0.5

    def test_capped_request_is_the_minimum(self):
        for n in range(1, 5):
            for k in range(1, 4):
                for p in range(1, 7):
                    exact = nesting._subset_request(n, k, p)
                    caps = {1, 2, 3, exact // 2, exact - 1, exact, exact + 1, 2 * exact,
                            10 ** 6} | set(range(1, min(exact, 40) + 2))
                    for cap in caps:
                        assert nesting._subset_request(n, k, p, at_most=cap) == \
                            min(exact, cap), (n, k, p, cap)

    def test_capped_request_builds_no_power(self):
        # 3^(2999^2) is the uncapped request of (n=3, k=1, q=3000)
        started = time.perf_counter()
        for q in (3000, 20000):
            assert nesting._subset_request(3, 1, q, at_most=2_000_002) == 2_000_002
            assert nesting._subset_request(1, 2, q, at_most=2_000_002) == 2_000_002
            assert nesting._subset_request(1, 1, q, at_most=2_000_002) == 1
            assert attack_threshold(3, 1, q, at_most=2_000_002) == 2_000_002
        with pytest.raises(ValueError, match="alphabet size 3 is too small"):
            find_attack_structure((1, 2, 3, 1, 2, 3), 3, 1, 3000)
        assert time.perf_counter() - started < 0.5

    def test_refuses_unbounded_and_tiny_words(self):
        with pytest.raises(ValueError):
            find_attack_structure((1, 1, 1), 2, 2, 2)
        with pytest.raises(ValueError):
            find_attack_structure((1, 2, 1), 2, 2, 2)

    @pytest.mark.parametrize("q", [16, 40])
    def test_high_q_refusal_builds_no_threshold(self, q):
        # structure_threshold(request, q) = request^(2^(q-1)) is too long
        # to print at q = 16 and to build at q = 40
        started = time.perf_counter()
        with pytest.raises(ValueError, match="alphabet size 3 "):
            find_attack_structure((1, 2, 3, 1, 2, 3), 2, 1, q)
        assert time.perf_counter() - started < 1

    def test_random_two_permutation_guarantee(self):
        rng = random.Random(16)
        for n, k in ((2, 2), (4, 2), (2, 4), (4, 4), (8, 2)):
            size = (n * k) ** 2 - n * k + 1
            for _ in range(4):
                alpha = random_two_permutation_word(rng, size)
                cert = find_attack_structure(alpha, n, k, 2)
                assert verify_attack_structure(alpha, cert)

    def test_q_one_reduces_to_single_part(self):
        alpha = tuple(range(1, 9))
        cert = find_attack_structure(alpha, 4, 3, 1)
        assert cert.p == 1
        assert len(cert.subalphabet) == 3
        assert verify_attack_structure(alpha, cert)


def _doubled_alphabet(rng, letters):
    """Each of 1..letters twice, shuffled: a 2-bounded word."""
    pool = list(range(1, letters + 1)) * 2
    rng.shuffle(pool)
    return tuple(pool)


def _third_occurrences(rng, letters, extra):
    """Two shuffled permutations of 1..letters with `extra` of the letters
    inserted a third time at random positions: a 3-bounded word."""
    w = list(random_two_permutation_word(rng, letters))
    for a in rng.sample(range(1, letters + 1), extra):
        w.insert(rng.randrange(len(w) + 1), a)
    return tuple(w)


class TestFillerFreeCertificate:
    """find_attack_structure at p = 2 against the brute force
    tests/support.py::reference_compact_certificate, falling back to the
    lexicographic prefix where no window qualifies."""

    @staticmethod
    def _check(w, n, k, q, kinds):
        try:
            cert = find_attack_structure(w, n, k, q)
        except ValueError:
            kinds["refused"] += 1
            return None
        assert verify_attack_structure(w, cert)
        if cert.p > 2:
            kinds["p >= 3"] += 1
            return cert
        lexicographic = lexicographic_attack_certificate(w, n, k, q)
        compact = reference_compact_certificate(w, n * k) if cert.p == 2 else None
        estimate = filler_estimate(w, cert)
        if compact is None:
            assert cert == lexicographic
            kinds[f"p = {cert.p}, prefix"] += 1
        else:
            assert (cert.subalphabet, cert.p, cert.splits) == (compact[0], 2, compact[1])
            assert estimate == 0
            kinds[f"p = 2, window, q = {q}"] += 1
        assert estimate <= filler_estimate(w, lexicographic)
        kinds["fewer fillers"] += estimate < filler_estimate(w, lexicographic)
        return cert

    def test_agrees_with_the_reference_on_random_words(self):
        rng = random.Random(21)
        kinds = Counter()
        words = []
        for _ in range(360):
            n, k = rng.choice(((1, 3), (3, 1), (2, 2), (1, 4), (2, 3), (5, 1)))
            words.append((_doubled_alphabet(rng, n * k + rng.randint(0, 4)), n, k, 2))
        for _ in range(240):
            words.append((_third_occurrences(rng, rng.randint(16, 22), rng.randint(1, 4)),
                          2, 1, 3))
        for w, n, k, q in words:
            self._check(w, n, k, q, kinds)
            for size in (1, 2, 3):
                assert nesting._filler_free_run(w, size) == \
                    reference_compact_certificate(w, size)
        assert kinds["p = 2, window, q = 2"] >= 120 and kinds["p = 2, window, q = 3"] >= 120
        assert kinds["p = 2, prefix"] >= 40 and kinds["p = 1, prefix"] >= 20
        assert kinds["fewer fillers"] >= 50

    @pytest.mark.parametrize("n", [4, 8])
    def test_two_permutation_and_mirror_words(self, n):
        l = attack_threshold(n, 2, 2)
        kinds = Counter()
        for seed in range(3):
            w = random_two_permutation_word(random.Random(f"compact:{n}:{seed}"), l)
            self._check(w, n, 2, 2, kinds)
        assert kinds == {"p = 2, window, q = 2": 3, "fewer fillers": 3}
        # the rightmost window of the mirror word is its lexicographic prefix
        mirror = tuple(range(1, l + 1)) + tuple(range(l, 0, -1))
        cert = self._check(mirror, n, 2, 2, kinds)
        assert cert == AttackCertificate(tuple(range(1, 2 * n + 1)), 2, (2 * n,), n, 2)
        assert cert == lexicographic_attack_certificate(mirror, n, 2, 2)


class TestVerifyAttackStructure:
    def test_single_part_certificate(self):
        cert = AttackCertificate((1, 2, 3), 1, (), 5, 3)
        assert verify_attack_structure((1, 2, 3), cert)

    def test_two_part_single_group(self):
        cert = AttackCertificate((1, 2), 2, (2,), 2, 1)
        assert verify_attack_structure((1, 2, 1, 2), cert)

    @pytest.mark.parametrize("p,n,k", [(2.9, 2, 1), (2, 2.7, 1), (2, 2, 1.5),
                                       (1, 0, 2), (2, -2, -1)])
    def test_rejects_non_integer_or_nonpositive_fields(self, p, n, k):
        # each float field would truncate to the genuine certificate above;
        # n = 0 at p = 1 gives |B| = 0^0 * k = 2 letters and n * k = 2 at
        # p = 2, so only the sign check refuses the last two
        w, splits = ((1, 2), ()) if p == 1 else ((1, 2, 1, 2), (2,))
        assert not verify_attack_structure(w, AttackCertificate((1, 2), p, splits, n, k))

    def test_rejects_mutations(self):
        l = 57
        alpha = tuple(range(1, l + 1)) + tuple(range(l, 0, -1))
        cert = find_attack_structure(alpha, 4, 2, 2)
        swapped = AttackCertificate((999,) + cert.subalphabet[1:], cert.p,
                                    cert.splits, cert.n, cert.k)
        assert not verify_attack_structure(alpha, swapped)
        shrunk = AttackCertificate(cert.subalphabet[:-1], cert.p, cert.splits,
                                   cert.n, cert.k)
        assert not verify_attack_structure(alpha, shrunk)
        repart = AttackCertificate(cert.subalphabet, cert.p + 1, cert.splits,
                                   cert.n, cert.k)
        assert not verify_attack_structure(alpha, repart)
        mislabeled = AttackCertificate(cert.subalphabet, cert.p, cert.splits,
                                       cert.n + 1, cert.k)
        assert not verify_attack_structure(alpha, mislabeled)

    def test_rejects_broken_containment(self):
        # containment can only fail for p >= 3 (singleton fine blocks always
        # nest): three parts over 8 letters, where part two's length-2 block
        # {3,4} straddles both length-4 blocks of part three
        straight = tuple(range(1, 9))
        crossed = (1, 2, 3, 5, 4, 6, 7, 8)
        alpha = straight + straight + crossed
        cert = AttackCertificate(straight, 3, (8, 16), 2, 2)
        assert not verify_attack_structure(alpha, cert)
        # control: with an aligned third part the same certificate passes
        aligned = straight + straight + straight
        assert verify_attack_structure(aligned, cert)


class TestDeepInputs:
    def test_bijection_with_augmenting_path_through_half_the_rows(self):
        # row i < k-1 meets columns i and min(i+2, k-1); row k-1 meets 0 and
        # 1.  Rows 0..k-2 take their diagonal, so the last row's augmenting
        # path runs through every even row, deeper than the recursion limit.
        k = 2500
        cells = ([(i, i) for i in range(k - 1)] + [(i, min(i + 2, k - 1)) for i in range(k - 1)]
                 + [(k - 1, 0), (k - 1, 1)])
        rows = tuple(frozenset(c for c in cells if c[0] == i) for i in range(k))
        cols = tuple(frozenset(c for c in cells if c[1] == j) for j in range(k))
        sigma = partition_bijection(rows, cols, 1)
        assert sigma == tuple(0 if i == k - 1 else min(i + 2, k - 1) if i % 2 == 0 else i
                              for i in range(k))

    def test_hostile_part_count_rejected_without_huge_power(self):
        # 3^(10^8 - 1) would take tens of seconds to build
        cert = AttackCertificate((1, 2), 10 ** 8, (), 3, 2)
        started = time.perf_counter()
        assert not verify_attack_structure((1, 2, 1, 2), cert)
        assert time.perf_counter() - started < 1

    def test_long_part_count_rejected_before_any_power_of_n(self, monkeypatch):
        # 3000 one-letter parts form a structure certificate for B = {1},
        # but |B| = 1 < 2^(p-1), so no level block count is ever built
        def refuse(*args):
            raise AssertionError("level_blocks called")

        monkeypatch.setattr(nesting, "level_blocks", refuse)
        word = (1,) * 3000
        cert = AttackCertificate((1,), 3000, tuple(range(1, 3000)), 3, 1)
        assert not verify_attack_structure(word, cert)


class TestLevelLayout:
    """level_layout against the cut it replaces, written out: the word split
    at the certificate's splits, each part condensed on B and cut into
    n^(p-i) * k equal blocks at level i."""

    @staticmethod
    def written_out(w, cert):
        bset = set(cert.subalphabet)
        parts = split_word(w, cert.splits)
        return [(part, equal_blocks(condense(part, bset), cert.n ** (cert.p - i) * cert.k))
                for i, part in enumerate(parts, 1)]

    def certificates(self):
        yield (1, 2, 3, 4), find_attack_structure((1, 2, 3, 4), 2, 4, 1)  # identity
        yield (1, 2, 3, 4, 5, 6, 6, 5), find_attack_structure((1, 2, 3, 4, 5, 6, 6, 5), 2, 2, 2)
        for n, seed in ((2, 0), (2, 1), (4, 2)):
            w = random_two_permutation_word(random.Random(f"layout:{seed}"),
                                            attack_threshold(n, 2, 2))
            yield w, find_attack_structure(w, n, 2, 2)
        alpha, _ = three_permutations(4, 1)
        yield alpha, find_attack_structure(alpha, 4, 1, 3)

    def test_matches_written_out_cut(self):
        seen = set()
        for w, cert in self.certificates():
            seen.add(cert.p)
            layout = list(level_layout(w, cert))
            assert layout == self.written_out(w, cert)
            assert len(layout) == cert.p
            assert all(len(block) == 1 for block in layout[0][1])  # level 1: singletons
        assert seen == {1, 2, 3}


class TestLevelBlocks:
    def test_block_counts_coarsest_last(self):
        assert level_blocks(4, 2, 3) == (32, 8, 2)
        assert level_blocks(3, 5, 1) == (5,)
        assert level_blocks(1, 2, 4) == (2, 2, 2, 2)
