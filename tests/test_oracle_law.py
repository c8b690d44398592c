"""The oracle's first-repeat law.  For a uniform random function, the
draws to the first repeated value of compress(h, .) over fresh blocks
follow the exact birthday law P(T > t) = prod_{i<t} (1 - i/2^n)
(support.first_repeat_cdf).  Every cost the attacks report assumes it, so
it is checked where they look: birthday_search at n = 8 and n = 12, one
fresh oracle per trial, and the stage queries of seeded Joux runs, each
stage a pair search over fresh blocks at its own state.

The Kolmogorov-Smirnov distance D is taken at every integer t against the
empirical CDF of all draws <= t, so tied samples are counted together.  Its
bound was fixed before the first run: the 0.1% critical value of the
Kolmogorov distribution, 1.9495 / sqrt(samples), which is conservative for
a discrete law.  The seeds are fixed; a failure is a finding about the
oracle, not a reason to re-seed.
"""

import math
from collections import Counter

import pytest

from gihflab.attacks import joux_attack
from gihflab.hashsim import CompressionOracle, birthday_search

from support import first_repeat_cdf

KS_CRITICAL_0_1 = 1.9495  # P(sqrt(N) * D > 1.9495) = 0.001 for a continuous law


def ks_distance(samples, n):
    """max over integer t of |F_samples(t) - P(T <= t)|: both CDFs are step
    functions that jump only at integers, so this is the supremum."""
    counts = Counter(samples)
    below = 0
    distance = 0.0
    for t, law in enumerate(first_repeat_cdf(n)):
        below += counts[t]
        distance = max(distance, abs(below / len(samples) - law))
    return distance


def assert_first_repeat_law(samples, n):
    assert min(samples) >= 2 and max(samples) <= (1 << n) + 1
    distance = ks_distance(samples, n)
    bound = KS_CRITICAL_0_1 / math.sqrt(len(samples))
    assert distance < bound, f"D = {distance:.4f} over {len(samples)} samples, bound {bound:.4f}"


def test_the_distance_counts_ties_together():
    # the exact law's own quantiles at n = 2: P(T <= t) = 0, 0, 1/4, 5/8,
    # 29/32, 1, so 32 samples placed at those proportions sit at D = 0
    samples = [2] * 8 + [3] * 12 + [4] * 9 + [5] * 3
    assert ks_distance(samples, 2) == pytest.approx(0.0)
    assert ks_distance([2] * 32, 2) == pytest.approx(0.75)


@pytest.mark.parametrize("n, m, trials", [(8, 16, 5000), (12, 20, 2000)])
def test_birthday_search_draws_follow_the_law(n, m, trials):
    samples = []
    for i in range(trials):
        oracle = CompressionOracle(n, m, seed=1000 + i)
        blocks, queries = birthday_search(oracle, i % (1 << n), 2)
        samples.append(queries)  # one distinct query per draw
    assert_first_repeat_law(samples, n)


def test_joux_stage_queries_follow_the_law():
    samples = []
    for seed in range(300):
        oracle = CompressionOracle(8, 16, seed=5000 + seed)
        _, report = joux_attack(oracle, seed % 256, 8)
        samples += report.stage_queries
    assert_first_repeat_law(samples, 8)
