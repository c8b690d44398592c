"""The oracle's first-repeat and first-triple laws.  For a uniform random
function, the draws to the first repeated value of compress(h, .) over
fresh blocks follow the exact birthday law P(T > t) = prod_{i<t} (1 - i/2^n)
(support.first_repeat_cdf), and the draws to the first value drawn a third
time follow the law of support.first_triple_cdf, an exact dynamic
programme over (values seen once, values seen twice).  Every cost the
attacks report assumes them, so they are checked where the attacks and the
baseline look: birthday_search for pairs at n = 8 and n = 12 and for
triples at n = 8, one fresh oracle per trial, and the stage queries of
seeded Joux runs, each stage a pair search over fresh blocks at its own
state.

The Kolmogorov-Smirnov distance D is taken at every integer t against the
empirical CDF of all draws <= t, so tied samples are counted together.  Its
bound was fixed before the first run: the 0.1% critical value of the
Kolmogorov distribution, 1.9495 / sqrt(samples), which is conservative for
a discrete law.  The seeds are fixed; a failure is a finding about the
oracle, not a reason to re-seed.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from gihflab.attacks import joux_attack
from gihflab.hashsim import CompressionOracle, birthday_search

from support import first_repeat_cdf, first_triple_cdf

KS_CRITICAL_0_1 = 1.9495  # P(sqrt(N) * D > 1.9495) = 0.001 for a continuous law


def ks_distance(samples, cdf):
    """max over integer t of |F_samples(t) - cdf[t]|, cdf[t] being the
    law's P(T <= t) up to the largest t it can take: both CDFs are step
    functions that jump only at integers, so this is the supremum."""
    counts = Counter(samples)
    below = 0
    distance = 0.0
    for t, law in enumerate(cdf):
        below += counts[t]
        distance = max(distance, abs(below / len(samples) - law))
    return distance


def assert_law(samples, cdf):
    # every sample lies where the law puts mass: P(T <= min) > 0, max <= the law's last t
    assert min(samples) >= 1 and cdf[min(samples)] > 0 and max(samples) < len(cdf)
    distance = ks_distance(samples, cdf)
    bound = KS_CRITICAL_0_1 / math.sqrt(len(samples))
    assert distance < bound, f"D = {distance:.4f} over {len(samples)} samples, bound {bound:.4f}"


def test_the_distance_counts_ties_together():
    # the exact law's own quantiles at n = 2: P(T <= t) = 0, 0, 1/4, 5/8,
    # 29/32, 1, so 32 samples placed at those proportions sit at D = 0
    samples = [2] * 8 + [3] * 12 + [4] * 9 + [5] * 3
    assert ks_distance(samples, first_repeat_cdf(2)) == pytest.approx(0.0)
    assert ks_distance([2] * 32, first_repeat_cdf(2)) == pytest.approx(0.75)


def exact_first_triple_cdf(n):
    """first_triple_cdf by another route: a walk over the sorted vector of
    every value's count so far, in exact fractions."""
    size = 1 << n

    @lru_cache(maxsize=None)
    def ends_by(counts, t):  # P(a triple within t more draws | counts)
        if t == 0:
            return Fraction(0)
        total = Fraction(0)
        for i, c in enumerate(counts):
            if c == 2:
                total += Fraction(1, size)
            else:
                grown = tuple(sorted(counts[:i] + (c + 1,) + counts[i + 1:]))
                total += Fraction(1, size) * ends_by(grown, t - 1)
        return total

    return [ends_by((0,) * size, t) for t in range(2 * size + 2)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_triple_law_is_the_count_vector_walk(n):
    assert first_triple_cdf(n) == pytest.approx([float(p) for p in exact_first_triple_cdf(n)])


@pytest.mark.parametrize("n, m, trials", [(8, 16, 5000), (12, 20, 2000)])
def test_birthday_search_draws_follow_the_law(n, m, trials):
    samples = []
    for i in range(trials):
        oracle = CompressionOracle(n, m, seed=1000 + i)
        blocks, queries = birthday_search(oracle, i % (1 << n), 2)
        samples.append(queries)  # one distinct query per draw
    assert_law(samples, first_repeat_cdf(n))


def test_joux_stage_queries_follow_the_law():
    samples = []
    for seed in range(300):
        oracle = CompressionOracle(8, 16, seed=5000 + seed)
        _, report = joux_attack(oracle, seed % 256, 8)
        samples += report.stage_queries
    assert_law(samples, first_repeat_cdf(8))


def test_birthday_triples_follow_the_law():
    samples = []
    for i in range(4000):
        oracle = CompressionOracle(8, 16, seed=9000 + i)
        blocks, queries = birthday_search(oracle, i % 256, 3)
        samples.append(queries)  # one distinct query per draw
    assert_law(samples, first_triple_cdf(8))
