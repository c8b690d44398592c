import random
from itertools import combinations

import pytest

from gihflab.regularity import (
    StructureCertificate,
    canonical_bounded_words,
    canonical_form,
    compute_n,
    find_structure,
    extremal_witness,
    structure_threshold,
    verify_structure,
)
from gihflab.words import condense, is_permutation, split_word, word_stats

from support import brute_force_structure, random_bounded_word


class TestVerifyStructure:
    def test_whole_word_permutation(self):
        assert verify_structure((1, 2, 3), StructureCertificate((1, 2, 3), 1, ()), 3)

    def test_two_parts(self):
        assert verify_structure((1, 2, 1, 2), StructureCertificate((1, 2), 2, (2,)), 2)

    def test_witness_rejects_every_pair_certificate(self):
        w = (1, 2, 1)
        for p in (1, 2):
            for splits in combinations(range(1, len(w)), p - 1):
                for subset in combinations(sorted(set(w)), 2):
                    cert = StructureCertificate(subset, p, splits)
                    assert not verify_structure(w, cert, 2)

    def test_shape_violations(self):
        w = (1, 2, 1, 2)
        assert not verify_structure(w, StructureCertificate((1, 2), 2, ()), 2)
        assert not verify_structure(w, StructureCertificate((1, 2), 2, (0,)), 2)
        assert not verify_structure(w, StructureCertificate((1, 2), 2, (4,)), 2)
        assert not verify_structure(w, StructureCertificate((1, 1), 2, (2,)), 2)
        assert not verify_structure(w, StructureCertificate((1, 9), 2, (2,)), 2)
        assert not verify_structure(w, StructureCertificate((1, 2), 2, (2,)), 3)

    @pytest.mark.parametrize("cert", [
        StructureCertificate(([1], 2), 1, ()),
        StructureCertificate((1, 2), 2, ("2",)),
        StructureCertificate((1, 2), 2, (2.0,)),
    ], ids=["unhashable-letter", "string-split", "float-split"])
    def test_malformed_fields_are_rejected_not_raised(self, cert):
        assert not verify_structure((1, 2, 1, 2), cert, 2)


class TestFindStructure:
    def test_witness_absent_exhaustively(self):
        outcome = find_structure((1, 2, 1), 2, 2)
        assert outcome.certificate is None
        assert outcome.exhaustive

    def test_two_explicit_permutations(self):
        outcome = find_structure((1, 2, 3, 1, 2, 3), 3, 2)
        cert = outcome.certificate
        assert cert.subalphabet == (1, 2, 3)
        assert cert.p == 2
        assert cert.splits == (3,)

    def test_every_three_letter_two_bounded_word_certified(self):
        for w in canonical_bounded_words(3, 2):
            outcome = find_structure(w, 2, 2)
            assert outcome.certificate is not None, w
            assert verify_structure(w, outcome.certificate, 2)

    def test_rejects_unbounded_word(self):
        with pytest.raises(ValueError):
            find_structure((1, 1, 1), 1, 2)

    def test_rejects_bad_mode_and_sizes(self):
        with pytest.raises(ValueError):
            find_structure((1, 2), 0, 2)
        with pytest.raises(ValueError):
            find_structure((1, 2), 1, 0)
        with pytest.raises(ValueError):
            find_structure((1, 2), 1, 1, "sloppy")

    def test_exhaustive_cap(self):
        w = tuple(range(1, 1501)) * 3  # 3-bounded, ~10M factorizations at q=3
        with pytest.raises(ValueError):
            find_structure(w, 2, 3, max_factorizations=1_000_000)

    def test_greedy_mode_budget(self):
        w = extremal_witness(4)
        outcome = find_structure(w, 4, 2, "greedy", greedy_budget=3)
        assert outcome.certificate is None
        assert not outcome.exhaustive

    def test_greedy_finds_easy_certificates(self):
        outcome = find_structure((1, 2, 3, 1, 2, 3), 3, 2, "greedy")
        assert outcome.certificate is not None
        assert not outcome.exhaustive

    def test_soundness_fuzz(self):
        rng = random.Random(7)
        for _ in range(200):
            q = rng.randint(1, 3)
            w = random_bounded_word(rng, rng.randint(1, 6), q)
            m = rng.randint(1, 4)
            outcome = find_structure(w, m, q)
            if outcome.certificate is not None:
                assert verify_structure(w, outcome.certificate, m)

    def test_agrees_with_direct_enumeration(self):
        # independent brute force over every (subset, p, splits) triple
        for size in (1, 2, 3, 4):
            for w in canonical_bounded_words(size, 2):
                for m in range(1, size + 1):
                    ours = find_structure(w, m, 2).certificate
                    brute = brute_force_structure(w, m, 2)
                    assert (ours is None) == (brute is None), (w, m)
                    if ours is not None:
                        assert verify_structure(w, ours, m)

    def test_certificates_shrink(self):
        # restricting the subalphabet of a valid certificate keeps it valid
        rng = random.Random(8)
        shrunk = 0
        for _ in range(150):
            w = random_bounded_word(rng, rng.randint(3, 7), 2)
            m = rng.randint(2, 3)
            cert = find_structure(w, m, 2).certificate
            if cert is None:
                continue
            for smaller in range(1, m):
                sub = StructureCertificate(cert.subalphabet[:smaller], cert.p, cert.splits)
                assert verify_structure(w, sub, smaller)
                shrunk += 1
        assert shrunk > 50

    def test_parts_condense_to_permutations(self):
        w = (1, 2, 3, 1, 2, 3)
        cert = find_structure(w, 3, 2).certificate
        subset = set(cert.subalphabet)
        for part in split_word(w, cert.splits):
            assert is_permutation(condense(part, subset), subset)


class TestWitnessFamily:
    def test_smallest_witness(self):
        assert extremal_witness(2) == (1, 2, 1)

    def test_shape(self):
        for m in range(2, 7):
            w = extremal_witness(m)
            stats = word_stats(w)
            assert len(w) == (m - 1) * (2 * m - 1)
            assert len(stats.alphabet) == m * (m - 1)
            assert stats.max_count == 2

    def test_no_certificate_up_to_five(self):
        for m in range(2, 6):
            outcome = find_structure(extremal_witness(m), m, 2)
            assert outcome.certificate is None, m
            assert outcome.exhaustive

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            extremal_witness(1)


class TestCanonicalForm:
    def test_examples(self):
        assert canonical_form((7, 3, 7)) == (1, 2, 1)
        assert canonical_form((1, 2, 3)) == (1, 2, 3)
        assert canonical_form((2, 2, 9)) == (1, 1, 2)

    def test_idempotent_and_bijection_invariant(self):
        rng = random.Random(9)
        for _ in range(200):
            w = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 10)))
            cf = canonical_form(w)
            assert canonical_form(cf) == cf
            mapping = {s: s + 17 for s in set(w)}
            assert canonical_form(tuple(mapping[s] for s in w)) == cf


class TestCanonicalEnumeration:
    def test_words_are_canonical_bounded_distinct(self):
        seen = set()
        for w in canonical_bounded_words(3, 2):
            assert canonical_form(w) == w
            stats = word_stats(w)
            assert stats.alphabet == frozenset({1, 2, 3})
            assert stats.max_count <= 2
            assert w not in seen
            seen.add(w)
        # 222 labeled words with per-letter counts in {1,2} over 3 letters,
        # and every relabeling class has exactly 3! = 6 distinct members
        assert len(seen) == 222 // 6

    def test_exact_count_single_letter(self):
        assert list(canonical_bounded_words(1, 2)) == [(1,), (1, 1)]


class TestComputeN:
    def test_trivial_m_one(self):
        assert compute_n(1, 3, 3).value == 1

    def test_one_bounded(self):
        assert compute_n(3, 1, 4).value == 3

    def test_two_bounded_pairs(self):
        result = compute_n(2, 2, 4)
        assert result.value == 3
        assert result.exhaustive
        # the size-2 violator is the smallest witness
        assert result.reports[1].violator == (1, 2, 1)

    def test_cap_hit_reports_partial(self):
        result = compute_n(3, 2, 3)  # true boundary is 7
        assert result.value is None
        assert not result.exhaustive
        assert all(r.violator is not None for r in result.reports)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            compute_n(0, 2, 3)
        with pytest.raises(ValueError):
            compute_n(2, 2, 0)


class TestStructureThreshold:
    def test_known_exact_values(self):
        assert structure_threshold(1, 5) == 1
        assert structure_threshold(4, 1) == 4
        assert structure_threshold(2, 2) == 3
        assert structure_threshold(32, 2) == 993

    def test_upper_bound_regime(self):
        assert structure_threshold(3, 3) == 3 ** 4
