import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from gihflab import regularity
from gihflab.regularity import (
    DEFAULT_MAX_FACTORIZATIONS,
    SearchOutcome,
    StructureCertificate,
    canonical_bounded_words,
    capped_power,
    compute_n,
    factorization_count,
    find_structure,
    extremal_witness,
    structure_threshold,
    verify_structure,
)
from gihflab.words import condense, is_permutation, split_word

from support import (
    admissible_splits,
    brute_force_structure,
    canonical_form,
    plain_structure,
    random_bounded_word,
    random_two_permutation_word,
    reference_conflicts,
    reference_decision,
    reference_verify_structure,
)

MALFORMED_CERTIFICATES = {
    "unhashable-letter": StructureCertificate(([1], 2), 1, ()),
    "string-split": StructureCertificate((1, 2), 2, ("2",)),
    "float-split": StructureCertificate((1, 2), 2, (2.0,)),
    "float-part-count": StructureCertificate((1, 2), 2.9, (2,)),
}


def certificate_mutants(rng, w, cert, m):
    """(certificate, m) pairs near a genuine certificate of w: a letter
    dropped, duplicated, reordered, swapped for another letter of w or for a
    letter outside it; a split shifted (also to its offset from the end,
    which slicing would accept), duplicated, added out of order or reversed;
    p or m off by one; and the malformed fields."""
    chosen, p, splits = list(cert.subalphabet), cert.p, list(cert.splits)
    i, j = rng.randrange(m), rng.randrange(m)
    others = sorted(set(w) - set(chosen))

    def make(letters=chosen, parts=p, cuts=splits, size=m):
        return StructureCertificate(tuple(letters), parts, tuple(cuts)), size

    yield make(chosen[:i] + chosen[i + 1:])
    yield make(chosen[:i] + chosen[i + 1:], size=m - 1)
    yield make(chosen + [chosen[i]])
    yield make([chosen[i] if k == j else a for k, a in enumerate(chosen)])
    swapped = chosen[:]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield make(swapped)
    if others:
        yield make([rng.choice(others) if k == i else a for k, a in enumerate(chosen)])
    yield make([max(w) + 1 if k == i else a for k, a in enumerate(chosen)])
    if splits:
        k = rng.randrange(len(splits))
        for delta in (-1, 1, -len(w)):
            yield make(cuts=[s + delta if n == k else s for n, s in enumerate(splits)])
        yield make(parts=p + 1, cuts=splits[:k + 1] + splits[k:])
        yield make(parts=p, cuts=splits[::-1])
    yield make(parts=p + 1, cuts=splits + [rng.randrange(1, len(w) + 1)])
    for parts in (p - 1, p + 1):
        yield make(parts=parts)
    for size in (m - 1, m + 1):
        yield make(size=size)
    for malformed in MALFORMED_CERTIFICATES.values():
        yield malformed, m


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
        assert not verify_structure(w, StructureCertificate((1, 2), 2, (-2,)), 2)
        assert not verify_structure(w, StructureCertificate((1, 1), 2, (2,)), 2)
        assert not verify_structure(w, StructureCertificate((1, 9), 2, (2,)), 2)
        assert not verify_structure(w, StructureCertificate((1, 2), 2, (2,)), 3)

    @pytest.mark.parametrize("cert", list(MALFORMED_CERTIFICATES.values()),
                             ids=list(MALFORMED_CERTIFICATES))
    def test_malformed_fields_are_rejected_not_raised(self, cert):
        assert not verify_structure((1, 2, 1, 2), cert, 2)

    def test_unhashable_symbol_is_rejected_not_raised(self):
        cert = StructureCertificate((1, 2), 2, (2,))
        assert not verify_structure((1, 2, [1], 2), cert, 2)
        assert not verify_structure(([1], 2, 1, 2), StructureCertificate((2,), 1, ()), 1)

    def test_non_integer_size_is_rejected_not_raised(self):
        cert = StructureCertificate((1, 2), 2, (2,))
        assert verify_structure((1, 2, 1, 2), cert, 2)
        for m in (2.0, 2.5, "2", None):
            assert not verify_structure((1, 2, 1, 2), cert, m), m

    def test_agrees_with_the_reference_on_certificates_and_mutants(self):
        rng = random.Random(19)
        triples = accepted_mutants = 0
        verdicts = set()
        for _ in range(700):
            q = rng.randint(1, 3)
            w = random_bounded_word(rng, rng.randint(1, 7), q,
                                    exact_alphabet=rng.random() < 0.5)
            m = rng.randint(1, 4)
            cert = find_structure(w, m, q).certificate
            if cert is None:
                continue
            assert reference_verify_structure(w, cert, m), (w, cert, m)
            for mutant, mm in certificate_mutants(rng, w, cert, m):
                ours = verify_structure(w, mutant, mm)
                assert ours == reference_verify_structure(w, mutant, mm), (w, mutant, mm)
                triples += 1
                accepted_mutants += ours
                verdicts.add(ours)
        assert triples >= 5000 and verdicts == {True, False}
        assert 0 < accepted_mutants < triples // 2


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
        with pytest.raises(TypeError):
            find_structure((1, 2), 1, 1, "greedy")  # no search modes

    def test_rejects_non_integer_sizes_before_any_split(self):
        # (1, 1, 1) is not 2-bounded, so the size check runs first
        with pytest.raises(TypeError, match="subalphabet size m must be an integer"):
            find_structure((1, 1, 1), 2.5, 2)
        for w in ((1, 2, 1, 2), (1, 2, 3, 1, 2, 3, 4, 5)):
            for m in (2.5, 2.0):
                with pytest.raises(TypeError, match="subalphabet size m must be an integer"):
                    find_structure(w, m, 2)
            for q in (2.5, 2.0):
                with pytest.raises(TypeError, match="occurrence bound q must be an integer"):
                    find_structure(w, 2, q)
        with pytest.raises(TypeError, match="subalphabet size m"):
            compute_n(2.5, 2, 3)
        with pytest.raises(TypeError, match="occurrence bound q"):
            compute_n(2, 2.5, 3)

    def test_prologue_error_texts(self):
        with pytest.raises(ValueError) as excinfo:
            find_structure((1, 2, 1, 1), 1, 2)
        assert str(excinfo.value) == "word is not 2-bounded (max occurrence count 3)"
        with pytest.raises(ValueError) as excinfo:
            find_structure(tuple(range(1, 1501)) * 3, 2, 3)
        assert str(excinfo.value) == "exhaustive search over more than 2000000 factorizations"

    def test_seven_letter_words_match_plain_enumeration(self):
        # the shape of the boundary_scan bench: canonical 2-bounded words
        # over exactly 7 letters at m = 3, all certified since N(3, 2) = 7
        rng = random.Random(20)
        two_parts = 0
        for _ in range(2000):
            w = canonical_form(random_bounded_word(rng, 7, 2))
            cert = find_structure(w, 3, 2).certificate
            assert cert is not None and cert == plain_structure(w, 3, 2), w
            two_parts += cert.p == 2
        assert two_parts > 0

    def test_relabelled_witnesses_refused_exhaustively(self):
        rng = random.Random(21)
        for m in (4, 5):
            w = extremal_witness(m)
            letters = sorted(set(w))
            for _ in range(3):
                names = dict(zip(letters, rng.sample(range(1, 4 * len(letters) + 1),
                                                     len(letters))))
                relabelled = tuple(names[a] for a in w)
                assert find_structure(relabelled, m, 2) == SearchOutcome(None, True)

    def test_factorization_count(self):
        assert factorization_count(5, 3) == 1 + 4 + 6
        assert factorization_count(1, 4) == 1
        assert factorization_count(0, 2) == 1
        assert factorization_count(10, 10) == 2 ** 9

    def test_factorization_count_is_the_capped_binomial_sum(self):
        cap = DEFAULT_MAX_FACTORIZATIONS
        for length in range(31):
            for q in range(1, 31):
                exact = sum(math.comb(max(length - 1, 0), p - 1) for p in range(1, q + 1))
                assert factorization_count(length, q) == min(exact, cap + 1), (length, q)

    def test_factorization_count_stops_at_the_cap(self):
        started = time.perf_counter()
        assert factorization_count(2_000_002, 20000) == DEFAULT_MAX_FACTORIZATIONS + 1
        assert factorization_count(10 ** 6, 10 ** 7) == DEFAULT_MAX_FACTORIZATIONS + 1
        assert time.perf_counter() - started < 0.1

    def test_exhaustive_cap(self):
        w = tuple(range(1, 1501)) * 3  # 3-bounded, ~10M factorizations at q=3
        with pytest.raises(ValueError, match="more than 2000000 factorizations"):
            find_structure(w, 2, 3)

    def test_oversized_subalphabet_refused_before_any_split(self):
        for w, m in (((), 1), ((1, 2, 1, 2), 3), (tuple(range(1, 201)) * 2, 201)):
            outcome = find_structure(w, m, 2)
            assert outcome == SearchOutcome(None, True) and outcome.decisions == ()

    def test_long_permutations_do_not_recurse(self):
        rng = random.Random(11)
        w = random_two_permutation_word(rng, 1100)
        cert = find_structure(w, 1100, 2).certificate
        assert (cert.p, cert.splits) == (2, (1100,))
        assert verify_structure(w, cert, 1100)

    def test_search_order_matches_brute_force(self):
        # both loop p, then splits, then subsets, so (p, splits) pins the order;
        # the search examines exactly the admissible splits up to its find
        rng = random.Random(12)
        ones = 0
        for _ in range(300):
            q = rng.randint(1, 3)
            w = random_bounded_word(rng, rng.randint(1, 5), q,
                                    exact_alphabet=rng.random() < 0.5)
            m = rng.randint(1, 4)
            ones += m == 1
            ours = find_structure(w, m, q)
            brute = brute_force_structure(w, m, q)
            assert ours.exhaustive
            assert (ours.certificate is None) == (brute is None), (w, m, q)
            expected = admissible_splits(len(w), m, q) if m <= len(set(w)) else []
            if brute is not None:
                assert (ours.certificate.p, ours.certificate.splits) == (brute.p, brute.splits)
                assert verify_structure(w, ours.certificate, m)
                assert verify_structure(w, brute, m)
                expected = expected[:expected.index(brute.splits) + 1]
            examined = [splits for splits, _ in ours.decisions]
            assert examined == expected, (w, m, q)
            for splits in examined:
                assert all(len(part) >= m for part in split_word(w, splits)), (w, m, splits)
        assert ones > 30

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

    def test_two_permutation_word_examines_two_factorizations(self):
        # p = 1 is refused by conflict degree, and (32,) is the first p = 2
        # split whose parts both hold 32 letters
        w = random_two_permutation_word(random.Random(3), 993)
        outcome = find_structure(w, 32, 2)
        cert = outcome.certificate
        assert outcome.decisions == (((), "degree"), ((32,), "certificate"))
        assert (cert.p, cert.splits, cert.subalphabet) == (2, (32,), w[:32])

    def test_admissible_split_count(self):
        for length in range(12):
            for m in range(1, 5):
                for p in range(1, 5):
                    count = sum(len(s) == p - 1 for s in admissible_splits(length, m, p))
                    top = length - p * m + p - 1
                    assert count == (math.comb(top, p - 1) if top >= 0 else 0), (length, m, p)

    def test_plain_enumeration_gives_the_same_certificates(self):
        for seed in (0, 1):
            w = random_two_permutation_word(random.Random(seed), 993)
            assert find_structure(w, 32, 2).certificate == plain_structure(w, 32, 2)
        rng = random.Random(15)
        for _ in range(200):
            q = rng.randint(1, 3)
            w = random_bounded_word(rng, rng.randint(1, 6), q)
            m = rng.randint(1, 4)
            assert find_structure(w, m, q).certificate == plain_structure(w, m, q), (w, m, q)

    def test_parts_condense_to_permutations(self):
        w = (1, 2, 3, 1, 2, 3)
        cert = find_structure(w, 3, 2).certificate
        subset = set(cert.subalphabet)
        for part in split_word(w, cert.splits):
            assert is_permutation(condense(part, subset), subset)


class TestSpanConflicts:
    def test_masks_match_the_pairwise_definition(self):
        rng = random.Random(13)
        singles = adjacent = 0
        for _ in range(2000):
            q = rng.randint(1, 3)
            w = random_bounded_word(rng, rng.randint(1, 12), q,
                                    exact_alphabet=rng.random() < 0.5)
            if rng.random() < 0.3:  # gather one letter's occurrences side by side
                a = rng.choice(w)
                rest = [s for s in w if s != a]
                i = rng.randint(0, len(rest))
                w = tuple(rest[:i] + [a] * w.count(a) + rest[i:])
            p = rng.randint(1, min(3, len(w)))
            splits = tuple(sorted(rng.sample(range(1, len(w)), p - 1)))
            parts = split_word(w, splits)
            cands, masks = regularity._span_conflicts(parts, 0)
            assert cands == [a for a in dict.fromkeys(w)
                             if all(a in part for part in parts)]
            relation = [{j for j in range(len(cands)) if mask >> j & 1} for mask in masks]
            assert relation == reference_conflicts(parts, cands), (w, splits)
            counts = [part.count(a) for part in parts for a in cands]
            singles += counts.count(1)
            adjacent += sum(1 for part in parts for x, y in zip(part, part[1:])
                            if x == y and x in cands)
        assert singles and adjacent

    def test_masks_only_for_enough_candidates(self):
        parts = split_word((1, 2, 3, 1, 2, 3), (3,))
        assert regularity._span_conflicts(parts, 4) == ([1, 2, 3], None)
        assert regularity._span_conflicts(parts, 3) == ([1, 2, 3], [0, 0, 0])
        # one part: every span overlaps every other
        assert regularity._span_conflicts(((1, 2, 3, 1, 2, 3),), 1) == \
            ([1, 2, 3], [0b110, 0b101, 0b011])

    def test_long_two_permutation_search_stays_small(self):
        # the pairwise sets held the complete graph on 993 letters at p = 1;
        # tracing slows the search tenfold, so one seed is measured
        for seed in (0, 1, 2):
            w = random_two_permutation_word(random.Random(seed), 993)
            if seed == 0:
                tracemalloc.start()
                try:
                    cert = find_structure(w, 32, 2).certificate
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4_000_000
            else:
                cert = find_structure(w, 32, 2).certificate
            assert (cert.p, cert.splits, cert.subalphabet) == (2, (32,), w[:32])


class TestConflictDegreeRefusal:
    def test_refuses_a_complete_relation_before_any_growth(self):
        w = tuple(range(1, 201)) * 2  # one part: every span holds the middle
        outcome = find_structure(w, 2, 2)
        assert outcome.decisions == (((), "degree"), ((2,), "certificate"))
        _, masks = regularity._span_conflicts((w,), 2)
        assert all(mask.bit_count() == 199 for mask in masks)

    def test_witness_is_still_refused_by_the_growth(self):
        # every letter of the six-letter witness conflicts with 5 of 30, and
        # no p = 2 split leaves 6 letters in both parts
        w = extremal_witness(6)
        outcome = find_structure(w, 6, 2)
        assert outcome == SearchOutcome(None, True)
        assert outcome.decisions == (((), "growth"),
                                     *(((cut,), "candidates") for cut in range(6, 50)))
        _, masks = regularity._span_conflicts((w,), 6)
        assert len(masks) == 30 and all(mask.bit_count() == 5 for mask in masks)

    def test_refusal_never_hides_a_certificate(self):
        # the growth alone (plain_structure) finds nothing the prune refused
        rng = random.Random(16)
        fired = 0
        for _ in range(400):
            w = random_bounded_word(rng, rng.randint(2, 8), 2)
            m = rng.randint(2, 4)
            cands, masks = regularity._span_conflicts((w,), m)
            if masks is None:
                continue
            kind, found = regularity._first_subalphabet((w,), m)
            if sorted(map(int.bit_count, masks))[m - 1] > len(cands) - m:
                fired += 1
                assert (kind, found) == ("degree", None)
            plain = plain_structure(w, m, 1)
            assert found == (None if plain is None else plain.subalphabet), (w, m)
        assert fired > 20


class TestDecisionRecord:
    def test_each_kind_is_the_reference_decision(self):
        # every examined split is recorded with the kind the references give
        # it, and only the last split of a find is a certificate
        rng = random.Random(26)
        seen = Counter()
        for _ in range(4000):
            q = rng.randint(1, 3)
            w = random_bounded_word(rng, rng.randint(1, 8), q,
                                    exact_alphabet=rng.random() < 0.5)
            m = rng.randint(1, 4)
            outcome = find_structure(w, m, q)
            kinds = [kind for _, kind in outcome.decisions]
            for splits, kind in outcome.decisions:
                assert kind == reference_decision(split_word(w, splits), m)[0], (w, m, splits)
            assert kinds.count("certificate") == (outcome.certificate is not None)
            if outcome.certificate is not None:
                assert outcome.decisions[-1] == (outcome.certificate.splits, "certificate")
            seen.update(kinds)
        # the growth refuses about one examined split in 170 at these sizes
        assert set(seen) == {"candidates", "degree", "growth", "certificate"}
        assert min(seen.values()) > 10, seen

    def test_decision_is_the_reference_on_parts_of_no_split(self):
        # the decision reads only its parts: here parts of unequal lengths,
        # with letters repeated within a part and letters that later parts
        # hold but the first does not; candidates follow the first part
        rng = random.Random(29)
        seen = Counter()
        absent_first = unsorted = 0
        for _ in range(12000):
            q = rng.randint(1, 3)
            parts = tuple(random_bounded_word(rng, rng.randint(1, 8), q,
                                              exact_alphabet=rng.random() < 0.5)
                          for _ in range(rng.randint(1, 3)))
            m = rng.randint(1, 4)
            kind, found = regularity._first_subalphabet(parts, m)
            assert (kind, found) == reference_decision(parts, m), (parts, m)
            seen[kind] += 1
            absent_first += any(set(part) - set(parts[0]) for part in parts[1:])
            unsorted += found is not None and list(found) != sorted(found)
        assert set(seen) == {"candidates", "degree", "growth", "certificate"}
        assert min(seen.values()) > 10 and absent_first > 100 and unsorted > 100, \
            (seen, absent_first, unsorted)


class TestWitnessFamily:
    def test_smallest_witness(self):
        assert extremal_witness(2) == (1, 2, 1)

    def test_shape(self):
        for m in range(2, 7):
            w = extremal_witness(m)
            counts = Counter(w)
            assert len(w) == (m - 1) * (2 * m - 1)
            assert len(counts) == m * (m - 1)
            assert max(counts.values()) == 2

    def test_no_certificate_up_to_five(self):
        for m in range(2, 6):
            outcome = find_structure(extremal_witness(m), m, 2)
            assert outcome.certificate is None, m
            assert outcome.exhaustive

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            extremal_witness(1)

    def test_refuses_a_witness_past_the_search_cap(self):
        # (m - 1)(2m - 1) letters: 1,997,001 at m = 1000, 2,001,000 at 1001,
        # and a word of l letters has l factorizations into at most 2 parts
        assert factorization_count(999 * 1999, 2) <= DEFAULT_MAX_FACTORIZATIONS
        with pytest.raises(ValueError, match="2001000 letters"):
            extremal_witness(1001)


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
            counts = Counter(w)
            assert set(counts) == {1, 2, 3}
            assert max(counts.values()) <= 2
            assert w not in seen
            seen.add(w)
        # 222 labeled words with per-letter counts in {1,2} over 3 letters,
        # and every relabeling class has exactly 3! = 6 distinct members
        assert len(seen) == 222 // 6

    def test_exact_count_single_letter(self):
        assert list(canonical_bounded_words(1, 2)) == [(1,), (1, 1)]

    @pytest.mark.parametrize("size,q,name", [(1, 2.5, "occurrence bound q"),
                                             (1, 2.0, "occurrence bound q"),
                                             (2.5, 2, "alphabet size"),
                                             (2.0, 2, "alphabet size")])
    def test_non_integer_size_or_bound_is_rejected(self, size, q, name):
        # a fractional q would never mark a letter full: (1,), (1, 1), ...
        # without end
        words = canonical_bounded_words(size, q)
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            next(words)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_brute_force_filter_in_tuple_order(self, size, q):
        # every q-bounded word over 1..size whose canonical form is itself,
        # grown one letter at a time: a prefix of a canonical word is
        # canonical, so dropping non-canonical prefixes loses no word
        found, layer = [], [()]
        while layer:
            layer = [w + (a,) for w in layer for a in range(1, size + 1)
                     if w.count(a) < q and canonical_form(w + (a,)) == w + (a,)]
            found += [w for w in layer if len(set(w)) == size]
        assert list(canonical_bounded_words(size, q)) == sorted(found)


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

    def test_cap_past_the_recursion_limit(self):
        # each size's first word is 1 1 1 2 2 2 ... size, 3 * size - 2
        # letters deep, so a call-stack enumeration would overflow
        result = compute_n(500, 3, 400)
        assert result.value is None and not result.exhaustive
        assert len(result.reports) == 400

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

    @pytest.mark.parametrize("m,q,name", [(3, 3.5, "occurrence bound q"),
                                          (3, 2.0, "occurrence bound q"),
                                          (3.5, 3, "subalphabet size m"),
                                          (2.0, 2, "subalphabet size m")])
    def test_non_integer_size_is_rejected(self, m, q, name):
        # structure_threshold(3, 3.5) was 3^(2^2.5), about 500.04
        for cap in (None, 100):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                structure_threshold(m, q, at_most=cap)

    def test_capped_value_is_the_minimum(self):
        for m in range(1, 6):
            for q in range(1, 6):
                for cap in (1, 2, 10, 10 ** 6):
                    assert structure_threshold(m, q, at_most=cap) == \
                        min(structure_threshold(m, q), cap)
        # 2^(2^(10^5 - 1)) is never built
        assert structure_threshold(2, 10 ** 5, at_most=100) == 100
        assert structure_threshold(1, 10 ** 5, at_most=100) == 1
        started = time.perf_counter()
        for q in (3000, 20000):
            for m in (1, 2, 3, 1000):
                for cap in (1, 2, 10, 2_000_002):
                    assert structure_threshold(m, q, at_most=cap) == (1 if m == 1 else cap)
        assert time.perf_counter() - started < 0.1

    def test_capped_power_is_the_minimum(self):
        for base in range(6):
            for exp in range(8):
                for cap in (0, 1, 2, 3, 10, 100, 10 ** 6):
                    assert capped_power(base, exp, cap) == min(base ** exp, cap)
                assert capped_power(base, exp, None) == base ** exp
        # 3^(10^12) is never built
        assert capped_power(3, 10 ** 12, 2_000_002) == 2_000_002
