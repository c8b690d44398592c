import random
from collections import Counter
from enum import IntEnum

import pytest

from gihflab.regularity import extremal_witness
from gihflab.words import (
    condense,
    equal_blocks,
    format_word,
    format_words,
    integers,
    is_permutation,
    parse_words,
    project,
    spans,
    split_word,
    word,
)

from support import is_q_bounded, reference_integers, reference_word


def random_word(rng, max_len=12, max_sym=5):
    return tuple(rng.randint(1, max_sym) for _ in range(rng.randint(0, max_len)))


class TestWord:
    def test_witness_is_two_bounded(self):
        counts = Counter(extremal_witness(3))
        assert len(counts) == 6
        assert max(counts.values()) == 2
        assert is_q_bounded(extremal_witness(3), 2)

    def test_negative_symbols_rejected(self):
        with pytest.raises(ValueError):
            word([1, -2])


class TestProject:
    def test_erases_outside_symbols(self):
        assert project((1, 2, 3, 3, 2, 1), {1, 3}) == (1, 3, 3, 1)

    def test_empty_subalphabet(self):
        assert project((4, 5, 6), set()) == ()

    def test_identity(self):
        assert project((1, 2), {1, 2}) == (1, 2)

    def test_composition_equals_intersection(self):
        rng = random.Random(101)
        for _ in range(300):
            w = random_word(rng)
            b = {s for s in range(1, 6) if rng.random() < 0.5}
            c = {s for s in range(1, 6) if rng.random() < 0.5}
            assert project(project(w, b), c) == project(w, b & c)

    def test_length_is_sum_of_counts(self):
        rng = random.Random(102)
        for _ in range(300):
            w = random_word(rng)
            b = {s for s in range(1, 6) if rng.random() < 0.5}
            counts = Counter(w)
            assert len(project(w, b)) == sum(counts.get(a, 0) for a in b)


class TestCondense:
    def test_collapses_runs(self):
        assert condense((1, 1, 2, 2, 1), {1, 2}) == (1, 2, 1)

    def test_single_run(self):
        assert condense((1, 2, 3, 3, 2, 1), {3}) == (3,)

    def test_project_then_collapse(self):
        assert condense((1, 2, 3, 3, 2, 1), {1, 3}) == (1, 3, 1)

    def test_no_equal_adjacent(self):
        rng = random.Random(103)
        for _ in range(500):
            w = random_word(rng)
            b = {s for s in range(1, 6) if rng.random() < 0.6}
            out = condense(w, b)
            assert all(out[i] != out[i + 1] for i in range(len(out) - 1))

    def test_restriction_tower(self):
        # condensing onto C after B equals condensing onto C directly, C <= B
        rng = random.Random(104)
        for _ in range(300):
            w = random_word(rng)
            b = {s for s in range(1, 6) if rng.random() < 0.7}
            c = {s for s in b if rng.random() < 0.5}
            assert condense(condense(w, b), c) == condense(w, c)


class TestIsPermutation:
    def test_examples(self):
        assert is_permutation((2, 1, 3), {1, 2, 3})
        assert not is_permutation((1, 1, 2), {1, 2})
        assert not is_permutation((1, 2), {1, 2, 3})

    def test_implies_length(self):
        rng = random.Random(105)
        for _ in range(300):
            w = random_word(rng)
            a = {s for s in range(1, 6) if rng.random() < 0.5}
            if is_permutation(w, a):
                assert len(w) == len(a)


class TestHelpers:
    def test_split_word(self):
        assert split_word((1, 2, 3, 4), (1, 3)) == ((1,), (2, 3), (4,))
        with pytest.raises(ValueError):
            split_word((1, 2), (0,))
        with pytest.raises(ValueError):
            split_word((1, 2), (1, 1))

    def test_equal_blocks(self):
        assert equal_blocks((1, 2, 3, 4), 2) == ((1, 2), (3, 4))
        with pytest.raises(ValueError):
            equal_blocks((1, 2, 3), 2)


class TestSpans:
    def test_matches_definition(self):
        # first index w.index(a), last len(w) - 1 - w[::-1].index(a), keys in
        # first-occurrence order; the empty word included
        rng = random.Random(106)
        words = [()] + [random_word(rng, max_len=30, max_sym=9) for _ in range(300)]
        for w in words:
            order = list(dict.fromkeys(w))
            first, last = spans(w)
            assert list(first) == list(last) == order
            assert first == {a: w.index(a) for a in order}
            assert last == {a: len(w) - 1 - w[::-1].index(a) for a in order}

    def test_small_word(self):
        assert spans((3, 1, 3, 2, 1)) == ({3: 0, 1: 1, 2: 3}, {3: 2, 1: 4, 2: 3})


class TestWordFiles:
    def test_round_trip(self):
        ws = [(1, 2, 3), (), (10, 10)]
        text = format_words(ws)
        assert text == "1 2 3\n\n10 10\n"
        assert parse_words(text) == ws

    def test_empty_line_is_empty_word(self):
        assert parse_words("\n") == [()]
        assert format_word(()) == ""


class Colour(IntEnum):
    RED = 1


def _outcome(decode, values):
    """The decoded tuple with the type of each item, or the error raised."""
    try:
        decoded = decode(values)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return decoded, tuple(map(type, decoded))


class TestDecoders:
    """integers and word accept and reject exactly what their per-value
    references do."""

    INPUTS = {
        "empty": (), "ints": (0, 7, 1 << 80), "bool": (True,), "int-and-bool": (1, False),
        "float": (2.5,), "integral-float": (3.0,), "digit-str": ("3",), "padded-str": (" 7",),
        "word-str": ("x",), "none": (None,), "int-enum": (Colour.RED,), "negative": (4, -1),
        "negative-str": ("-4",), "negative-then-bad": ("-1", "x"), "nested": ((1,),),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_integers_matches_reference(self, name):
        values = self.INPUTS[name]
        assert _outcome(integers, values) == _outcome(reference_integers, values)
        assert _outcome(integers, iter(values)) == _outcome(reference_integers, values)

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_word_matches_reference(self, name):
        values = self.INPUTS[name]
        assert _outcome(word, values) == _outcome(reference_word, values)
        assert _outcome(word, iter(values)) == _outcome(reference_word, values)

    def test_what_each_accepts(self):
        def accepted(decode):
            return {name for name, values in self.INPUTS.items()
                    if not isinstance(_outcome(decode, values)[0], type)}

        assert accepted(integers) == {"empty", "ints", "negative"}
        assert accepted(word) == {"empty", "ints", "bool", "int-and-bool", "float",
                                  "integral-float", "digit-str", "padded-str", "int-enum"}
        assert word((Colour.RED, True)) == (1, 1)
