"""Every public entry that takes a size or count from its caller refuses a
non-integer value with a TypeError and a value below its least with a
ValueError, each naming the parameter.  One row per (entry, parameter):
the call with that one argument replaced, the parameter's name, and its
largest refused integer (0, or 1 where the least value is 2)."""

import re

import pytest

from gihflab.attacks import (
    complexity_bound,
    generalized_attack,
    joux_attack,
    verify_multicollision,
)
from gihflab.classics import find_arithmetic_cadence, find_n_division
from gihflab.hashsim import (
    CompressionOracle,
    birthday_search,
    block_stream,
    identity_schedule,
    mirror_schedule,
    table_collision,
)
from gihflab.nesting import (
    attack_threshold,
    factorization_subset,
    find_attack_structure,
    level_blocks,
    partition_bijection,
)
from gihflab.regularity import (
    canonical_bounded_words,
    compute_n,
    extremal_witness,
    find_structure,
    structure_threshold,
)
from gihflab.words import equal_blocks, require_int

WORD = (1, 2, 3, 4, 2, 1, 4, 3)
HALVES = (frozenset({1}), frozenset({2}))
PERMS = ((1, 2, 3, 4), (4, 3, 2, 1))  # d = (1, 2): 1 * 2^2 letters


def oracle():
    return CompressionOracle(8, 16, seed=1)


def verify_joux(cap):
    o = oracle()
    mc, _ = joux_attack(o, 0, 2)
    return verify_multicollision(o.clone(), identity_schedule(), 0, mc, cap=cap)


SIZE_PARAMETERS = [
    # words
    ("equal_blocks-count", lambda v: equal_blocks((1, 2, 3, 4), v), "block count", 0),
    # regularity
    ("find_structure-m", lambda v: find_structure(WORD, v, 2), "subalphabet size m", 0),
    ("find_structure-q", lambda v: find_structure(WORD, 2, v), "occurrence bound q", 0),
    ("canonical_bounded_words-size", lambda v: next(canonical_bounded_words(v, 2)),
     "alphabet size", 0),
    ("canonical_bounded_words-q", lambda v: next(canonical_bounded_words(2, v)),
     "occurrence bound q", 0),
    ("structure_threshold-m", lambda v: structure_threshold(v, 2), "subalphabet size m", 0),
    ("structure_threshold-q", lambda v: structure_threshold(2, v), "occurrence bound q", 0),
    ("compute_n-m", lambda v: compute_n(v, 2, 3), "subalphabet size m", 0),
    ("compute_n-q", lambda v: compute_n(2, v, 3), "occurrence bound q", 0),
    ("compute_n-alphabet_cap", lambda v: compute_n(2, 2, v), "alphabet cap", 0),
    ("extremal_witness-m", extremal_witness, "subalphabet size m", 1),
    # nesting
    ("attack_threshold-n", lambda v: attack_threshold(v, 1, 2), "hash length n", 0),
    ("attack_threshold-k", lambda v: attack_threshold(2, v, 2), "collision exponent k", 0),
    ("attack_threshold-q", lambda v: attack_threshold(2, 1, v), "occurrence bound q", 0),
    ("find_attack_structure-n", lambda v: find_attack_structure(WORD, v, 1, 2),
     "hash length n", 0),
    ("find_attack_structure-k", lambda v: find_attack_structure(WORD, 2, v, 2),
     "collision exponent k", 0),
    ("find_attack_structure-q", lambda v: find_attack_structure(WORD, 2, 1, v),
     "occurrence bound q", 0),
    ("level_blocks-n", lambda v: level_blocks(v, 1, 2), "hash length n", 0),
    ("level_blocks-k", lambda v: level_blocks(2, v, 2), "collision exponent k", 0),
    ("level_blocks-p", lambda v: level_blocks(2, 1, v), "part count p", 0),
    ("partition_bijection-x", lambda v: partition_bijection(HALVES, HALVES, v),
     "intersection target x", 0),
    ("factorization_subset-d0", lambda v: factorization_subset(PERMS, (v, 2)),
     "divisor d[0]", 0),
    ("factorization_subset-d1", lambda v: factorization_subset(PERMS, (1, v)),
     "divisor d[1]", 0),
    # attacks
    ("complexity_bound-n", lambda v: complexity_bound(v, 2, 993), "hash length n", 0),
    ("complexity_bound-q", lambda v: complexity_bound(16, v, 993), "occurrence bound q", 0),
    ("complexity_bound-l", lambda v: complexity_bound(16, 2, v), "message length l", 0),
    ("joux_attack-r", lambda v: joux_attack(oracle(), 0, v), "collision exponent r", 0),
    ("generalized_attack-q", lambda v: generalized_attack(oracle(), mirror_schedule(), v, 8, 1),
     "occurrence bound q", 0),
    ("generalized_attack-r", lambda v: generalized_attack(oracle(), mirror_schedule(), 2, 8, v),
     "collision exponent r", 0),
    ("verify_multicollision-cap", verify_joux, "verification cap", 0),
    # hashsim
    ("CompressionOracle-n", lambda v: CompressionOracle(v, 16, 1), "hash length n", 0),
    ("CompressionOracle-m", lambda v: CompressionOracle(8, v, 1), "block length m", 0),
    ("block_stream-m", lambda v: block_stream(v, 1), "block length m", 0),
    ("table_collision-k", lambda v: table_collision(abs, iter(range(4)), v),
     "collision size k", 1),
    ("birthday_search-k", lambda v: birthday_search(oracle(), 0, v), "collision size k", 1),
    # classics
    ("find_arithmetic_cadence-s", lambda v: find_arithmetic_cadence(WORD, v),
     "cadence order s", 0),
    ("find_n_division-n", lambda v: find_n_division(WORD, v), "factor count n", 1),
]


@pytest.mark.parametrize("call,name,refused", [row[1:] for row in SIZE_PARAMETERS],
                         ids=[row[0] for row in SIZE_PARAMETERS])
def test_size_parameter_is_guarded(call, name, refused):
    for value in (2.5, 2.0, "2", None, True):
        with pytest.raises(TypeError, match=f"^{re.escape(name)} must be an integer"):
            call(value)
    for value in (refused, -1):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= "):
            call(value)


def test_require_int():
    require_int(1, "size")
    require_int(10 ** 30, "size")
    with pytest.raises(TypeError, match="^size must be an integer, not float$"):
        require_int(1.0, "size")
    with pytest.raises(TypeError, match="^size must be an integer, not bool$"):
        require_int(True, "size")
    with pytest.raises(ValueError, match="^size must be >= 1$"):
        require_int(0, "size")
