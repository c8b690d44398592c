import random
import time
from itertools import permutations

import pytest

from gihflab.nesting import (
    AttackCertificate,
    ConstructionError,
    LevelFactorization,
    NestingCertificate,
    PartitionPair,
    attack_threshold,
    factorization_subset,
    find_attack_structure,
    partition_bijection,
    verify_attack_structure,
    verify_nesting,
)
from gihflab.words import equal_blocks, project

from support import (
    random_divisor_chain,
    random_equal_partition,
    random_permutations_of,
    random_two_permutation_word,
)


class TestPartitionBijection:
    def test_single_block(self):
        pair = PartitionPair(frozenset({1, 2}), (frozenset({1, 2}),),
                             (frozenset({1, 2}),), 1)
        assert partition_bijection(pair) == (0,)

    def test_deterministic_identity_pick(self):
        # both bijections are valid here; the free-partner-first rule takes
        # the identity
        pair = PartitionPair(
            frozenset({1, 2, 3, 4}),
            (frozenset({1, 2}), frozenset({3, 4})),
            (frozenset({1, 3}), frozenset({2, 4})), 1)
        assert partition_bijection(pair) == (0, 1)

    def test_absent_when_intersections_small(self):
        pair = PartitionPair(
            frozenset({1, 2, 3, 4}),
            (frozenset({1, 2}), frozenset({3, 4})),
            (frozenset({1, 3}), frozenset({2, 4})), 2)
        assert partition_bijection(pair) is None

    def test_needs_augmenting_path(self):
        # first blocks compete for the same partner, forcing a reassignment
        pair = PartitionPair(
            frozenset(range(8)),
            (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})),
            (frozenset({0, 2}), frozenset({1, 3}), frozenset({4, 6}), frozenset({5, 7})), 1)
        sigma = partition_bijection(pair)
        assert sigma is not None
        assert sorted(sigma) == [0, 1, 2, 3]
        for i in range(4):
            assert len(pair.blocks_b[i] & pair.blocks_c[sigma[i]]) >= 1

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError):
            partition_bijection(PartitionPair(frozenset({1, 2}), (frozenset({1}),),
                                              (frozenset({1}), frozenset({2})), 1))
        with pytest.raises(ValueError):
            partition_bijection(PartitionPair(frozenset({1, 2, 3}),
                                              (frozenset({1}), frozenset({2, 3})),
                                              (frozenset({1, 2}), frozenset({3})), 1))

    def test_matches_brute_force_existence(self):
        rng = random.Random(12)
        for _ in range(300):
            k, size = rng.randint(1, 5), rng.randint(1, 4)
            ground = frozenset(range(k * size))
            pair = PartitionPair(ground, random_equal_partition(rng, ground, k),
                                 random_equal_partition(rng, ground, k), rng.randint(1, size))
            exists = any(all(len(pair.blocks_b[i] & pair.blocks_c[sigma[i]]) >= pair.x
                             for i in range(k)) for sigma in permutations(range(k)))
            sigma = partition_bijection(pair)
            assert (sigma is not None) == exists
            if exists:
                assert sorted(sigma) == list(range(k))

    def test_guarantee_at_cubed_ground(self):
        rng = random.Random(11)
        for _ in range(150):
            k = rng.randint(1, 4)
            x = rng.randint(1, 3)
            ground = frozenset(range(k ** 3 * x))
            pair = PartitionPair(ground,
                                 random_equal_partition(rng, ground, k),
                                 random_equal_partition(rng, ground, k), x)
            sigma = partition_bijection(pair)
            assert sigma is not None
            assert all(len(pair.blocks_b[i] & pair.blocks_c[sigma[i]]) >= x
                       for i in range(k))


class TestFactorizationSubset:
    def test_degenerate_two_letters(self):
        cert = factorization_subset([(1, 2), (2, 1)], [2, 1])
        assert set(cert.subalphabet) == {1, 2}

    def test_sixteen_letter_instances(self):
        rng = random.Random(12)
        for _ in range(25):
            perms = random_permutations_of(rng, 16, 2)
            cert = factorization_subset(perms, [4, 2])
            assert len(cert.subalphabet) == 4
            assert verify_nesting(perms, [4, 2], cert)

    def test_uniform_divisor_pairwise_alignment(self):
        # d0=4, d=2, r=2: alphabet of size 4 * 2^4 = 64, three permutations;
        # the kept subset aligns block alphabets between every pair of words
        rng = random.Random(13)
        perms = random_permutations_of(rng, 64, 3)
        cert = factorization_subset(perms, [4, 2, 2])
        assert len(cert.subalphabet) == 4
        assert verify_nesting(perms, [4, 2, 2], cert)
        subset = set(cert.subalphabet)
        families = []
        for w in perms:
            blocks = equal_blocks(project(w, subset), 2)
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
            cert = factorization_subset(perms, d)
            assert len(cert.subalphabet) == d[0]
            assert verify_nesting(perms, d, cert)


class TestVerifyNesting:
    def _instance(self):
        rng = random.Random(15)
        perms = random_permutations_of(rng, 16, 2)
        cert = factorization_subset(perms, [4, 2])
        return perms, cert

    def test_round_trip(self):
        perms, cert = self._instance()
        assert verify_nesting(perms, [4, 2], cert)

    def test_rejects_swapped_member(self):
        perms, cert = self._instance()
        bad = NestingCertificate((99,) + cert.subalphabet[1:], cert.levels,
                                 cert.final_blocks)
        assert not verify_nesting(perms, [4, 2], bad)

    def test_rejects_tampered_level_blocks(self):
        perms, cert = self._instance()
        level = cert.levels[0]
        reordered = LevelFactorization(level.d, tuple(reversed(level.left_blocks)),
                                       level.right_blocks)
        bad = NestingCertificate(cert.subalphabet, (reordered,), cert.final_blocks)
        assert not verify_nesting(perms, [4, 2], bad)

    def test_rejects_unequal_final_blocks(self):
        perms, cert = self._instance()
        merged = cert.final_blocks[0] + cert.final_blocks[1]
        bad = NestingCertificate(cert.subalphabet,
                                 cert.levels, (merged,) + cert.final_blocks[2:])
        assert not verify_nesting(perms, [4, 2], bad)

    def test_rejects_wrong_divisors(self):
        perms, cert = self._instance()
        assert not verify_nesting(perms, [4, 1], cert)


class TestAttackStructure:
    def test_two_explicit_permutations(self):
        alpha = (1, 2, 3, 4, 2, 1, 4, 3)
        cert = find_attack_structure(alpha, 2, 2, 2)
        assert cert.p == 2
        assert len(cert.subalphabet) == 4
        assert verify_attack_structure(alpha, 2, 2, cert)

    def test_mirror_word_over_57_letters(self):
        l = 57  # boundary alphabet for an 8-letter subalphabet at q=2
        alpha = tuple(range(1, l + 1)) + tuple(range(l, 0, -1))
        cert = find_attack_structure(alpha, 4, 2, 2)
        assert len(cert.subalphabet) in (2, 8)
        assert verify_attack_structure(alpha, 4, 2, cert)

    def test_threshold_values(self):
        assert attack_threshold(2, 2, 1) == 2
        assert attack_threshold(2, 2, 2) == 13
        assert attack_threshold(16, 2, 2) == 993
        assert attack_threshold(8, 2, 2) == 241
        with pytest.raises(ValueError):
            attack_threshold(0, 1, 1)

    def test_refuses_unbounded_and_tiny_words(self):
        with pytest.raises(ValueError):
            find_attack_structure((1, 1, 1), 2, 2, 2)
        with pytest.raises(ValueError):
            find_attack_structure((1, 2, 1), 2, 2, 2)

    def test_random_two_permutation_guarantee(self):
        rng = random.Random(16)
        for n, k in ((2, 2), (4, 2), (2, 4), (4, 4), (8, 2)):
            size = (n * k) ** 2 - n * k + 1
            for _ in range(4):
                alpha = random_two_permutation_word(rng, size)
                cert = find_attack_structure(alpha, n, k, 2)
                assert verify_attack_structure(alpha, n, k, cert)

    def test_q_one_reduces_to_single_part(self):
        alpha = tuple(range(1, 9))
        cert = find_attack_structure(alpha, 4, 3, 1)
        assert cert.p == 1
        assert len(cert.subalphabet) == 3
        assert verify_attack_structure(alpha, 4, 3, cert)


class TestVerifyAttackStructure:
    def test_single_part_certificate(self):
        cert = AttackCertificate((1, 2, 3), 1, (), 5, 3)
        assert verify_attack_structure((1, 2, 3), 5, 3, cert)

    def test_two_part_single_group(self):
        cert = AttackCertificate((1, 2), 2, (2,), 2, 1)
        assert verify_attack_structure((1, 2, 1, 2), 2, 1, cert)

    def test_rejects_mutations(self):
        l = 57
        alpha = tuple(range(1, l + 1)) + tuple(range(l, 0, -1))
        cert = find_attack_structure(alpha, 4, 2, 2)
        swapped = AttackCertificate((999,) + cert.subalphabet[1:], cert.p,
                                    cert.splits, cert.n, cert.k)
        assert not verify_attack_structure(alpha, 4, 2, swapped)
        shrunk = AttackCertificate(cert.subalphabet[:-1], cert.p, cert.splits,
                                   cert.n, cert.k)
        assert not verify_attack_structure(alpha, 4, 2, shrunk)
        repart = AttackCertificate(cert.subalphabet, cert.p + 1, cert.splits,
                                   cert.n, cert.k)
        assert not verify_attack_structure(alpha, 4, 2, repart)
        mislabeled = AttackCertificate(cert.subalphabet, cert.p, cert.splits,
                                       cert.n + 1, cert.k)
        assert not verify_attack_structure(alpha, 4, 2, mislabeled)

    def test_rejects_broken_containment(self):
        # containment can only fail for p >= 3 (singleton fine blocks always
        # nest): three parts over 8 letters, where part two's length-2 block
        # {3,4} straddles both length-4 blocks of part three
        straight = tuple(range(1, 9))
        crossed = (1, 2, 3, 5, 4, 6, 7, 8)
        alpha = straight + straight + crossed
        cert = AttackCertificate(straight, 3, (8, 16), 2, 2)
        assert not verify_attack_structure(alpha, 2, 2, cert)
        # control: with an aligned third part the same certificate passes
        aligned = straight + straight + straight
        assert verify_attack_structure(aligned, 2, 2, cert)


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
        sigma = partition_bijection(PartitionPair(frozenset(cells), rows, cols, 1))
        assert sigma == tuple(0 if i == k - 1 else min(i + 2, k - 1) if i % 2 == 0 else i
                              for i in range(k))

    def test_hostile_part_count_rejected_without_huge_power(self):
        # 3^(10^8 - 1) would take tens of seconds to build
        cert = AttackCertificate((1, 2), 10 ** 8, (), 3, 2)
        started = time.perf_counter()
        assert not verify_attack_structure((1, 2, 1, 2), 3, 2, cert)
        assert time.perf_counter() - started < 1
