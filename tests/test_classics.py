import random
from itertools import permutations

import pytest

from gihflab.classics import (
    MAX_NDIV_LENGTH,
    MAX_NDIV_N,
    check_n_division,
    find_arithmetic_cadence,
    find_n_division,
)
from support import brute_force_cadence_exists, brute_force_n_division_exists, is_cadence_on


class TestArithmeticCadence:
    def test_period_three(self):
        cadence = find_arithmetic_cadence((1, 2, 3, 1, 2, 3, 1, 2, 3), 3)
        assert cadence.positions == (1, 4, 7)
        assert cadence.difference == 3
        assert is_cadence_on((1, 2, 3, 1, 2, 3, 1, 2, 3), cadence.positions)

    def test_all_distinct(self):
        assert find_arithmetic_cadence((1, 2, 3, 4), 2) is None

    def test_constant_word(self):
        cadence = find_arithmetic_cadence((7, 7, 7), 3)
        assert cadence.positions == (1, 2, 3)
        assert cadence.difference == 1

    def test_order_one(self):
        assert find_arithmetic_cadence((9,), 1).positions == (1,)
        assert find_arithmetic_cadence((), 1) is None

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            find_arithmetic_cadence((1, 2), 0)

    def test_smallest_difference_first(self):
        # both d=2 (positions 1,3,5) and d=1 would need equal symbols; here
        # only 5 5 5 at distance 2 and 5 5 at distance 1 exist
        cadence = find_arithmetic_cadence((5, 1, 5, 1, 5), 3)
        assert cadence.positions == (1, 3, 5)

    def test_agrees_with_subset_brute_force(self):
        rng = random.Random(42)
        for _ in range(250):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 12)))
            for s in (1, 2, 3, 4):
                found = find_arithmetic_cadence(w, s)
                assert (found is not None) == brute_force_cadence_exists(w, s)
                if found is not None:
                    assert len(found.positions) == s
                    assert is_cadence_on(w, found.positions)

    def test_cadence_validity_helpers(self):
        assert not is_cadence_on((1, 2), (1, 3))
        assert is_cadence_on((9, 1, 9, 1), (2, 4))
        assert not is_cadence_on((1, 2), (1, 2))
        assert is_cadence_on((5, 1, 5, 1, 5), (1, 3, 5))
        assert not is_cadence_on((5, 1, 5, 5, 5), (1, 3, 4))  # unequal gaps
        assert not is_cadence_on((5, 5), (2, 1))  # decreasing
        assert not is_cadence_on((5,), ())


class TestNDivision:
    def test_two_letters(self):
        division = find_n_division((1, 2), 2)
        assert division.prefix == () and division.suffix == ()
        assert division.factors == ((1,), (2,))

    def test_single_letter_absent(self):
        assert find_n_division((5,), 2) is None

    def test_equal_letters_absent(self):
        assert find_n_division((1, 1), 2) is None

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            find_n_division((1, 2), 1)

    def test_rejects_above_caps(self):
        with pytest.raises(ValueError):
            find_n_division(tuple(range(MAX_NDIV_LENGTH + 1)), 2)
        with pytest.raises(ValueError):
            find_n_division((1, 2, 3), MAX_NDIV_N + 1)

    def test_returned_division_reverifies(self):
        rng = random.Random(43)
        for _ in range(120):
            w = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 9)))
            for n in (2, 3):
                division = find_n_division(w, n)
                if division is not None:
                    assert check_n_division(w, division)
                    # explicit re-check against every nontrivial shuffle
                    identity = tuple(range(n))
                    for sigma in permutations(range(n)):
                        if sigma != identity:
                            assert w < division.assemble(sigma)

    def test_existence_agrees_with_brute_force(self):
        rng = random.Random(44)
        for _ in range(120):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 8)))
            for n in (2, 3):
                assert (find_n_division(w, n) is not None) == \
                    brute_force_n_division_exists(w, n)

    def test_increasing_word_is_n_divided(self):
        division = find_n_division((1, 2, 3, 4), 4)
        assert division is not None
        assert division.factors == ((1,), (2,), (3,), (4,))
