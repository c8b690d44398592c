import random
import statistics
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from enum import IntEnum

import pytest

from gihflab import attacks
from gihflab.attacks import (
    CollisionGroup,
    MulticollisionSet,
    _attack,
    _frontier_digests,
    _inherited_units,
    _sampled_selections,
    _steps,
    _walk_level,
    complexity_bound,
    generalized_attack,
    joux_attack,
    verify_multicollision,
)
from gihflab.hashsim import (
    CompressionOracle,
    Lookahead,
    Schedule,
    derive_seed,
    f_plus,
    gihf_eval,
    identity_schedule,
    mirror_schedule,
    schedule_from_words,
    table_collision,
)
from gihflab.nesting import (
    AttackCertificate,
    ConstructionError,
    attack_threshold,
    find_attack_structure,
    verify_attack_structure,
)
from gihflab.words import split_word

from support import (
    enumerated_digests,
    expanding_frontier_digests,
    lexicographic_attack_certificate,
    random_bounded_word,
    random_two_permutation_word,
    reference_joux_pairs,
    reference_sampler_stream,
    reference_table_collision,
    rewalk_level,
    three_permutations,
)


def _certified_attack(alpha, cert, q, seed):
    """_attack at m = 16 on a given certificate for the word alpha; returns
    the oracle, the schedule, the multicollision and the report."""
    sched = schedule_from_words([()] * (max(alpha) - 1) + [alpha])
    oracle = CompressionOracle(cert.n, 16, seed=seed)
    return oracle, sched, *_attack(oracle, sched, q, alpha, cert, 0, 1 << 16)


def _two_permutation_word(n, seed):
    """Two shuffled permutations of 1..attack_threshold(n, 2, 2)."""
    l = attack_threshold(n, 2, 2)
    return random_two_permutation_word(random.Random(f"two-permutations:{n}:{seed}"), l)


def _two_permutation_attack(n, seed):
    """generalized_attack at q = 2, r = 2 on _two_permutation_word(n, seed)."""
    l = attack_threshold(n, 2, 2)
    sched = schedule_from_words([()] * (l - 1) + [_two_permutation_word(n, seed)])
    return generalized_attack(CompressionOracle(n, n + 8, seed=seed), sched, 2, n, 2)


def _lexicographic_two_permutations(n, seed):
    """_two_permutation_word(n, seed) under the certificate of find_structure's
    lexicographic prefix: B is forced to the first n r letters, which lie
    scattered through the second permutation, so each level-2 span walks
    the filler blocks between them."""
    word = _two_permutation_word(n, seed)
    return word, lexicographic_attack_certificate(word, n, 2, 2)


def _mirror_one_part(l=16, x=12):
    """The mirror word 1..l l..1 under the one-part certificate B = {x}:
    x's span runs out to l and back, so it reads x's slot twice, with
    filler blocks between."""
    cert = AttackCertificate((x,), 1, (), 8, 1)
    return mirror_schedule().generator(l), cert


def _doubled_letter(n):
    """A two-permutation word at r = 2 whose second part reads a letter x of
    B once more, just after the letter outside B that follows x.  The part
    still condenses to the same permutation of B, so the certificate holds,
    and the level-2 span holding x reads x's slot twice (the word is
    3-bounded).  The certificate is find_structure's lexicographic prefix:
    find_attack_structure's own holds B in one run of part 2, with no
    letter outside B after any letter of B but the last."""
    l = attack_threshold(n, 2, 2)
    word = random_two_permutation_word(random.Random(f"doubled-letter:{n}"), l)
    cert = lexicographic_attack_certificate(word, n, 2, 2)
    subset = set(cert.subalphabet)
    second = list(word[l:])
    at = next(i for i, (x, y) in enumerate(zip(second, second[1:]))
              if x in subset and y not in subset)
    second.insert(at + 2, second[at])
    return word[:l] + tuple(second), cert


# attacks whose levels tests/support.py::rewalk_level replays: spans that
# read a slot twice, q = 2 collapse levels with and without filler blocks
# inside their spans, and three-level certificates
LEVEL_WALK_CASES = {
    "mirror-one-part-n8": lambda: _certified_attack(*_mirror_one_part(), 2, 70)[2:],
    "doubled-letter-n8": lambda: _certified_attack(*_doubled_letter(8), 3, 71)[2:],
    "two-permutations-n8": lambda: _two_permutation_attack(8, 72),
    "two-permutations-n12": lambda: _two_permutation_attack(12, 73),
    "two-permutations-lexicographic-n12":
        lambda: _certified_attack(*_lexicographic_two_permutations(12, 73), 2, 73)[2:],
    "three-levels-k1": lambda: _certified_attack(*three_permutations(4, 1), 3, 61)[2:],
    "three-levels-k2": lambda: _certified_attack(*three_permutations(4, 2), 3, 62)[2:],
}


# the two entry points of a Joux attack: joux_attack and its q = 1 case of
# generalized_attack on the identity word
JOUX_ROUTES = {
    "joux_attack": joux_attack,
    "generalized_attack": lambda o, h0, r: generalized_attack(
        o, identity_schedule(), 1, o.n, r, h0=h0),
}


class TestFirstLevelPair:
    """One Joux stage: the first-level table search over fresh blocks."""

    def test_pair_verifies_and_chains(self):
        o = CompressionOracle(8, 16, seed=21)
        mc, report = joux_attack(o, 0, 1)
        ((b1,), (b2,)), = (g.choices for g in mc.groups)
        assert b1 != b2
        probe = o.clone()
        h_next = probe.compress(0, b1)
        assert probe.compress(0, b2) == h_next
        assert verify_multicollision(o.clone(), identity_schedule(), 0, mc).digest == h_next
        assert report.attack_queries == report.stage_queries[0] == o.query_count

    # one table expects sqrt(pi/2) * 2^(n/2) draws per pair; the windows are
    # those of the former cross-stream search, sqrt(2) dearer, scaled by 1/sqrt(2)
    def test_mean_cost_n8(self):
        costs = []
        for s in range(200):
            o = CompressionOracle(8, 16, seed=s)
            costs.append(joux_attack(o, 0, 1)[1].attack_queries)
        assert 11 <= statistics.mean(costs) <= 42

    def test_mean_cost_n16(self):
        costs = []
        for s in range(30):
            o = CompressionOracle(16, 24, seed=s)
            costs.append(joux_attack(o, 0, 1)[1].attack_queries)
        assert 250 <= statistics.mean(costs) <= 780

    @pytest.mark.parametrize("n,m,seed,h0,r", [
        (4, 8, 1, 0, 6), (8, 16, 22, 0, 5), (8, 70, 3, 200, 4), (12, 20, 7, 1, 3),
        (16, 24, 41, 0, 2),
    ])
    @pytest.mark.parametrize("route", JOUX_ROUTES)
    def test_matches_brute_force_reference(self, route, n, m, seed, h0, r):
        mc, report = JOUX_ROUTES[route](CompressionOracle(n, m, seed=seed), h0, r)
        pairs, draws = reference_joux_pairs(n, m, seed, h0, r)
        assert [g.positions for g in mc.groups] == [(i,) for i in range(1, r + 1)]
        assert [(g.choices[0][0], g.choices[1][0]) for g in mc.groups] == pairs
        assert mc.base_blocks == {}
        assert list(report.stage_queries) == draws
        assert report.attack_queries == sum(draws)

    @pytest.mark.parametrize("n,m,seed,h0,r", [
        (16, 24, 5, 0, 3), (8, 16, 11, 0, 1), (8, 16, 12, 7, 4), (12, 20, 13, 1, 6),
    ])
    def test_both_routes_return_one_attack(self, n, m, seed, h0, r):
        # one engine call: the same set, report and query count on both
        # routes, 1,344 queries at n = 16, seed 5, r = 3
        joux, generalized = (attack(CompressionOracle(n, m, seed=seed), h0, r)
                             for attack in JOUX_ROUTES.values())
        assert joux == generalized and joux[1].verify_ok
        if (n, seed, r) == (16, 5, 3):
            assert joux[1].attack_queries == 1344


    def test_a_stage_ends_at_the_last_block_of_a_tiny_space(self):
        # at n = 2, m = 3, seed 1 the three stages draw 3, 2 and 3 of the 8
        # blocks, so the last pair ends at the last block, and a fourth
        # stage finds the space exhausted
        pairs, draws = reference_joux_pairs(2, 3, 1, 0, 3)
        assert draws == [3, 2, 3]
        mc, report = joux_attack(CompressionOracle(2, 3, seed=1), 0, 3)
        assert [(g.choices[0][0], g.choices[1][0]) for g in mc.groups] == pairs
        assert pairs[-1][1] == reference_sampler_stream(3, derive_seed(1, "joux"), 8)[-1]
        assert report.verify_ok and list(report.stage_queries) == draws
        oracle = CompressionOracle(2, 3, seed=1)
        with pytest.raises(ValueError, match="block space of 3-bit blocks exhausted"):
            joux_attack(oracle, 0, 4)
        assert oracle.query_count == sum(draws)

    @pytest.mark.parametrize("h0", [-1, 256])
    @pytest.mark.parametrize("route", JOUX_ROUTES)
    def test_state_outside_the_range_is_refused(self, route, h0):
        oracle = CompressionOracle(8, 16, seed=24)
        with pytest.raises(ValueError, match=f"hash value {h0} outside 8-bit range"):
            JOUX_ROUTES[route](oracle, h0, 3)
        assert (oracle.query_count, oracle.raw_calls) == (0, 0)

    def test_mixed_spans_read_one_stream_in_order(self):
        # one-symbol spans (positions 1 and 4) alternate with spans that
        # read their position twice around a filler (2 and 5), so each kind
        # of unit follows the other; every unit must continue the stream
        # where the last one stopped, the rest of a warmed segment first
        part = (1, 2, 3, 2, 4, 5, 6, 5, 7)
        fillers = {3: 11, 6: 12, 7: 13}

        def level(walk):
            oracle = CompressionOracle(8, 16, seed=25)
            candidates = Lookahead(oracle, seed=26)
            units = [((pos,), candidates) for pos in (1, 2, 4, 5)]
            return walk(oracle, part, units, fillers, 9)

        groups, state, stage_queries = level(_walk_level)
        assert (groups, state, stage_queries) == level(rewalk_level)
        stream = reference_sampler_stream(16, 26, 4 * 300)
        at = [stream.index(choice[0]) for g in groups for choice in g.choices]
        assert at == sorted(at)
        # a one-symbol unit makes one query per draw, its first draw being
        # the block after the last unit's pair
        assert stage_queries[0] == at[1] + 1
        assert stage_queries[2] == at[5] - at[3]


class TestJouxAttack:
    def test_single_stage_is_one_pair(self):
        o = CompressionOracle(8, 16, seed=22)
        mc, report = joux_attack(o, 0, 1)
        assert report.verify_ok
        assert len(mc.groups) == 1
        assert mc.expansion_size == 2
        probe = o.clone()
        g = mc.groups[0]
        assert probe.compress(0, g.choices[0][0]) == probe.compress(0, g.choices[1][0])

    def test_expansion_has_exactly_two_to_the_r_messages(self):
        o = CompressionOracle(8, 16, seed=23)
        mc, report = joux_attack(o, 0, 5)
        messages = set(mc.messages())
        assert len(messages) == 32
        assert all(len(msg) == 5 for msg in messages)

    def test_counter_reconciliation(self):
        o = CompressionOracle(16, 24, seed=24)
        mc, report = joux_attack(o, 0, 4)
        assert report.attack_queries == sum(report.stage_queries)
        assert report.attack_queries == o.query_count
        assert report.raw_calls >= report.attack_queries

    def test_verification_queries_not_counted(self):
        o = CompressionOracle(8, 16, seed=25)
        before = o.query_count
        mc, report = joux_attack(o, 0, 3)
        assert report.verify_ok
        assert o.query_count - before == report.attack_queries

    def test_memo_bytes_per_query(self):
        # one memo entry per distinct query: the block, kept from the
        # stream, its value and its share of its state's table, with the
        # attack's result still held
        tracemalloc.start()
        try:
            o = CompressionOracle(20, 28, seed=7)
            result = joux_attack(o, 0, 8)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result[1].verify_ok
        assert held / o.query_count < 128

    def test_scalar_chain_bytes_per_query(self):
        # every step of a chain over fresh blocks is at a fresh state, so
        # each query opens a table of its own: the one-entry table, the
        # value and the state's entry in the memo; the blocks are the
        # caller's
        rng = random.Random(8)
        blocks = [rng.getrandbits(48) for _ in range(20_000)]
        tracemalloc.start()
        try:
            o = CompressionOracle(32, 48, seed=8)
            f_plus(o, 0, blocks)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert o.query_count == len(blocks)
        assert held / o.query_count < 320

    def test_huge_block_length_builds_no_power(self):
        tracemalloc.start()
        try:
            started = time.perf_counter()
            _, report = joux_attack(CompressionOracle(8, 10 ** 9, seed=1), 0, 4)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verify_ok
        assert elapsed < 0.5
        assert peak < 1 << 20

    def test_rejects_r_zero(self):
        o = CompressionOracle(8, 16, seed=25)
        with pytest.raises(ValueError):
            joux_attack(o, 0, 0)

    def test_linear_cost_slope(self):
        # mean queries grow linearly in r; fitted slope within +-50% of the
        # nominal 2.5 * 2^(n/2) per stage
        n = 16
        nominal = 2.5 * 2 ** (n // 2)
        rs = range(1, 9)
        means = []
        for r in rs:
            runs = []
            for s in range(6):
                o = CompressionOracle(n, 24, seed=1000 * r + s)
                _, report = joux_attack(o, 0, r)
                runs.append(report.attack_queries)
            means.append(statistics.mean(runs))
        xbar = statistics.mean(rs)
        ybar = statistics.mean(means)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(rs, means)) / \
            sum((x - xbar) ** 2 for x in rs)
        assert 0.5 * nominal <= slope <= 1.5 * nominal


class TestVerifyMulticollision:
    def _sample(self, seed=26, r=3):
        o = CompressionOracle(8, 16, seed=seed)
        mc, report = joux_attack(o, 0, r)
        return o, mc

    def test_round_trip(self):
        o, mc = self._sample()
        outcome = verify_multicollision(o.clone(), identity_schedule(), 0, mc)
        assert outcome and outcome.complete and outcome.checked == 8

    def test_rejects_replaced_block(self):
        # swapping any single choice block for a fresh one breaks the digest
        for seed in range(20):
            o, mc = self._sample(seed=300 + seed)
            g0 = mc.groups[0]
            fresh = (g0.choices[0][0] + 12345) % (1 << 16)
            bad = MulticollisionSet(
                mc.length,
                (CollisionGroup(g0.positions, ((fresh,), g0.choices[1])),) + mc.groups[1:],
                mc.base_blocks, mc.r)
            assert not verify_multicollision(o.clone(), identity_schedule(), 0, bad)

    def test_rejects_duplicate_choice(self):
        o, mc = self._sample()
        g0 = mc.groups[0]
        dup = MulticollisionSet(
            mc.length,
            (CollisionGroup(g0.positions, (g0.choices[0], g0.choices[0])),) + mc.groups[1:],
            mc.base_blocks, mc.r)
        assert not verify_multicollision(o.clone(), identity_schedule(), 0, dup)
        with pytest.raises(ValueError, match="^a group repeats a choice$"):
            dup.validate()

    def test_rejects_malformed_structure(self):
        o, mc = self._sample()
        overlapping = MulticollisionSet(
            mc.length, mc.groups + (mc.groups[0],), mc.base_blocks, mc.r + 1)
        assert not verify_multicollision(o.clone(), identity_schedule(), 0, overlapping)
        wrong_r = MulticollisionSet(mc.length, mc.groups, mc.base_blocks, mc.r + 1)
        assert not verify_multicollision(o.clone(), identity_schedule(), 0, wrong_r)

    def test_partial_sampling_mode(self):
        # both groups of a mirror-word set are live across the middle of the
        # word, so its frontier of four (picks, state) pairs outgrows cap=2
        o = CompressionOracle(8, 16, seed=34)
        mc, report = generalized_attack(o, mirror_schedule(), 2, 8, 2)
        outcome = verify_multicollision(o.clone(), mirror_schedule(), 0, mc, cap=2)
        assert outcome.ok
        assert not outcome.complete
        assert outcome.checked <= 2
        assert verify_multicollision(o.clone(), mirror_schedule(), 0, mc, cap=4).complete

    def test_frontier_under_cap_is_complete(self):
        # a Joux frontier never holds more than two pairs, so cap=8 checks
        # all 32 messages
        o, mc = self._sample(r=5)
        outcome = verify_multicollision(o.clone(), identity_schedule(), 0, mc, cap=8)
        assert outcome.ok and outcome.complete and outcome.checked == 32

    def test_cap_below_one_rejected(self):
        o, mc = self._sample()
        for cap in (0, -1):
            with pytest.raises(ValueError):
                verify_multicollision(o.clone(), identity_schedule(), 0, mc, cap=cap)


def _flipped(mc, rng, m):
    """mc with one bit of one base block or one group choice block flipped."""
    bit = 1 << rng.randrange(m)
    base, groups = dict(mc.base_blocks), list(mc.groups)
    if base and rng.random() < 0.5:
        base[rng.choice(sorted(base))] ^= bit
    else:
        gi = rng.randrange(len(groups))
        choices = [list(c) for c in groups[gi].choices]
        choice = rng.choice(choices)
        choice[rng.randrange(len(choice))] ^= bit
        groups[gi] = CollisionGroup(groups[gi].positions, tuple(map(tuple, choices)))
    return MulticollisionSet(mc.length, tuple(groups), base, mc.r)


def _joux_set(seed):
    o = CompressionOracle(8, 16, seed=seed)
    return o, identity_schedule(), joux_attack(o, 0, 5)[0]


def _mirror_set(seed):
    o = CompressionOracle(8, 16, seed=seed)
    return o, mirror_schedule(), generalized_attack(o, mirror_schedule(), 2, 8, 2)[0]


def _two_permutation_set(seed):
    length = attack_threshold(6, 2, 2)
    word = random_two_permutation_word(random.Random(seed), length)
    sched = schedule_from_words([()] * (length - 1) + [word], "file")
    o = CompressionOracle(6, 12, seed=seed)
    return o, sched, generalized_attack(o, sched, 2, 6, 2)[0]


def _mixed_set(rng, q=2):
    """A hand-built set over a random q-bounded word, with the alpha it is
    hashed along: one- and two-position groups of 2 to 4 choices, read once
    or more, between base positions.  At n = 4 states often merge."""
    length = rng.randint(3, 9)
    alpha = random_bounded_word(rng, length, q)
    free = list(range(1, length + 1))
    rng.shuffle(free)
    groups = []
    for _ in range(rng.randint(1, 4)):
        width = min(rng.choice((1, 1, 2)), len(free))
        if not width:
            break
        positions = tuple(free.pop() for _ in range(width))
        choices, count = set(), rng.randint(2, 4)
        while len(choices) < count:
            choices.add(tuple(rng.getrandbits(8) for _ in positions))
        groups.append(CollisionGroup(positions, tuple(sorted(choices))))
    base = {pos: rng.getrandbits(8) for pos in free}
    o = CompressionOracle(4, 8, seed=rng.getrandbits(32))
    return o, alpha, MulticollisionSet(length, tuple(groups), base, 1)


def _boundary_cap(o, alpha, mc):
    """The smallest cap at which the expanding reference pass completes."""
    def fits(cap):
        return expanding_frontier_digests(o.clone(), alpha, 0, mc, cap) is not None

    high = 1
    while not fits(high):
        high *= 2
    low = high // 2  # 0, or a cap that does not fit
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if fits(mid) else (mid, high)
    return high


class TestOnePassVerifier:
    """The one-pass verifier against hashing every message on its own."""

    SOURCES = {"joux": _joux_set, "mirror": _mirror_set,
               "two-permutation": _two_permutation_set}

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_agrees_with_enumeration(self, source):
        rng = random.Random(f"flip:{source}")
        verdicts = []
        for seed in range(400, 408):
            o, sched, genuine = self.SOURCES[source](seed)
            for mc in [genuine] + [_flipped(genuine, rng, o.m) for _ in range(3)]:
                reference, audit = o.clone(), o.clone()
                alpha = sched.generator(mc.length)
                digests = enumerated_digests(reference, alpha, 0, mc)
                # sets of up to SEPARATE_HASHING_MAX messages skip the pass,
                # so cross-check it directly too; it queries the same
                # distinct (state, block) pairs as hashing every message
                passed = o.clone()
                assert _frontier_digests(passed, _steps(alpha, mc), 0, 1 << 16) == set(digests)
                assert passed.query_count == reference.query_count
                messages = list(mc.messages())
                expected = len(set(digests)) == 1 and len(set(messages)) == len(messages)
                outcome = verify_multicollision(audit, sched, 0, mc)
                assert outcome.ok == expected and outcome.complete
                assert outcome.digest == (digests[0] if expected else None)
                assert outcome.checked == (len(messages) if expected else 0)
                # a rejection may stop before every message is hashed
                assert audit.query_count == reference.query_count if expected \
                    else audit.query_count <= reference.query_count
                verdicts.append(expected)
        assert verdicts[::4] == [True] * 8
        assert verdicts.count(False) >= 8

    def _reference_cases(self, source, rng):
        if source.startswith("mixed"):
            q = 3 if source == "mixed-3" else 2
            for _ in range(40):
                yield _mixed_set(rng, q)
            return
        if source == "joux":
            sets = []
            for r in range(1, 9):
                o = CompressionOracle(8, 16, seed=450 + r)
                sets.append((o, identity_schedule(), joux_attack(o, 0, r)[0]))
        else:
            sets = [self.SOURCES[source](seed) for seed in range(400, 404)]
        for o, sched, genuine in sets:
            alpha = sched.generator(genuine.length)
            for mc in [genuine] + [_flipped(genuine, rng, o.m) for _ in range(3)]:
                yield o, alpha, mc

    @pytest.mark.parametrize("source",
                             ["joux", "mirror", "two-permutation", "mixed", "mixed-3"])
    def test_matches_expanding_reference(self, source):
        # each group read is one step of the pass: the group's first read,
        # its last, both (a group read once) or neither, where the
        # reference joins, hashes and merges in up to three frontier
        # rebuilds; both stop at the same cap and query the same
        # (state, block) pairs
        rng = random.Random(f"expanding:{source}")
        kinds = Counter()  # sets by the read-more-than-once flags of their groups
        middle = 0  # sets with a group read that is neither its first nor its last
        for o, alpha, mc in self._reference_cases(source, rng):
            reads = Counter(alpha)
            counts = [sum(reads[pos] for pos in g.positions) for g in mc.groups]
            kinds[tuple(sorted({count > 1 for count in counts}))] += 1
            middle += max(counts) > 2
            boundary = _boundary_cap(o, alpha, mc)
            for cap in (1 << 16, boundary, boundary - 1):
                reference, passed = o.clone(), o.clone()
                expected = expanding_frontier_digests(reference, alpha, 0, mc, cap)
                assert _frontier_digests(passed, _steps(alpha, mc), 0, cap) == expected
                assert (expected is None) == (cap < boundary)
                assert passed.query_count == reference.query_count
                assert passed.raw_calls == reference.raw_calls
        # Joux reads every group once, the q=2 attacks every position twice
        if source == "joux":
            assert set(kinds) == {(False,)} and middle == 0
        elif source.startswith("mixed"):
            assert kinds[(False, True)] >= 8
            assert middle >= (24 if source == "mixed-3" else 8)  # 34 and 12 of 40
        else:
            assert set(kinds) == {(True,)}

    def test_joux_two_to_the_64(self):
        o = CompressionOracle(16, 24, seed=41)
        mc, report = joux_attack(o, 0, 64)
        assert report.verify_ok
        outcome = verify_multicollision(o.clone(), identity_schedule(), 0, mc)
        assert outcome.ok and outcome.complete and outcome.checked == 2 ** 64
        probe = o.clone()
        for pick in (0, 1):
            assert gihf_eval(probe, identity_schedule(), 0, mc.message((pick,) * 64)) \
                == outcome.digest

    def test_frontier_costs_two_compressions_per_joux_stage(self):
        o = CompressionOracle(16, 24, seed=43)
        mc, _ = joux_attack(o, 0, 16)
        audit = o.clone()
        outcome = verify_multicollision(audit, identity_schedule(), 0, mc)
        assert outcome.ok and outcome.complete and outcome.checked == 2 ** 16
        assert audit.raw_calls == 2 * 16

    def test_small_sets_cost_one_word_then_the_group_reads(self):
        # the first message walks the whole word; every later one calls
        # compress at the group reads only, since a genuine set's messages
        # enter each base run at the state the first one entered it
        o = CompressionOracle(8, 16, seed=44)
        mirror, _ = generalized_attack(o, mirror_schedule(), 2, 8, 1)
        # (oracle, schedule, set, its group reads): the mirror word has
        # 2 * 57 letters, the two-permutation word 266
        cases = ((o, mirror_schedule(), mirror, 16), (*_two_permutation_set(400), 24))
        for oracle, sched, mc, group_reads in cases:
            alpha = sched.generator(mc.length)
            owned = {pos for group in mc.groups for pos in group.positions}
            assert sum(pos in owned for pos in alpha) == group_reads
            audit = oracle.clone()
            outcome = verify_multicollision(audit, sched, 0, mc)
            assert outcome.ok and outcome.complete and outcome.checked == 2 ** mc.r
            # 114 + 1 * 16 = 130 calls, and 266 + 3 * 24 = 338
            assert audit.raw_calls == len(alpha) + (2 ** mc.r - 1) * group_reads

    def test_base_run_reuse_is_keyed_by_the_entering_state(self):
        # in each set message 1 enters a base run at another state than
        # message 0: the hand-built set's group is read once, before the run
        # 2..6, and the mirror set's choice 1 is flipped at its first read,
        # position 8, before the run 9..57 57..9; reusing the run's last
        # leaving state would skip queries, and join the hand-built digests
        o = CompressionOracle(8, 16, seed=44)
        mirror, _ = generalized_attack(o, mirror_schedule(), 2, 8, 1)
        (group,) = mirror.groups
        flipped = (group.choices[0], (group.choices[1][0] ^ 1, *group.choices[1][1:]))
        once = MulticollisionSet(6, (CollisionGroup((1,), ((1,), (2,))),),
                                 {pos: pos for pos in range(2, 7)}, 1)
        cases = ((identity_schedule(), once),
                 (mirror_schedule(), replace(mirror, groups=(replace(group, choices=flipped),))))
        for sched, mc in cases:
            reference, audit = o.clone(), o.clone()
            digests = enumerated_digests(reference, sched.generator(mc.length), 0, mc)
            assert len(set(digests)) == 2
            outcome = verify_multicollision(audit, sched, 0, mc)
            assert not outcome.ok and outcome.checked == 0
            assert audit.query_count == reference.query_count

    def test_joux_two_to_the_three_costs_one_call_per_read(self):
        # bench/test_perfbench.py traces this check at 8 * 3 compress calls
        # and 2 * 3 misses, which is why SEPARATE_HASHING_MAX keeps sets of
        # up to eight messages off the frontier; a change to that route
        # fails here, not only in the bench suite
        o = CompressionOracle(8, 12, 5)
        mc, report = joux_attack(o, 0, 3)
        assert report.verify_ok
        audit = o.clone()
        outcome = verify_multicollision(audit, identity_schedule(), 0, mc)
        assert outcome.ok and outcome.complete and outcome.checked == 8
        assert audit.raw_calls == 8 * 3 and audit.query_count == 2 * 3

    def test_groups_live_to_the_end_fall_back_to_sampling(self):
        # one-position groups on the mirror word 1..6 6..1 are all live
        # across its middle: 64 pairs fit cap=64, and cap=63 samples
        rng = random.Random(42)
        groups = tuple(CollisionGroup((pos,), ((rng.getrandbits(16),), (rng.getrandbits(16),)))
                       for pos in range(1, 7))
        mc = MulticollisionSet(6, groups, {}, 6)
        o = CompressionOracle(8, 16, seed=42)
        full = verify_multicollision(o.clone(), mirror_schedule(), 0, mc, cap=64)
        assert full.complete and not full.ok and full.checked == 0
        sampled = verify_multicollision(o.clone(), mirror_schedule(), 0, mc, cap=63)
        assert not sampled.complete and sampled.checked <= 63
        assert not sampled.ok

    @pytest.mark.parametrize("sizes", [(2,) * 6, (4, 2, 2, 2, 2)])
    def test_sampler_draws_distinct_selections(self, sizes):
        # 2^6 messages: cap draws give min(cap, 64) distinct selections,
        # each pick within its group's choices
        groups = tuple(CollisionGroup((pos,), tuple((b,) for b in range(size)))
                       for pos, size in enumerate(sizes, 1))
        mc = MulticollisionSet(len(sizes), groups, {}, 6)
        for cap in (1, 2, 63, 64, 100):
            selections = _sampled_selections(mc, cap)
            assert len(selections) == len(set(selections)) == min(cap, 64)
            assert all(pick < size for sel in selections for pick, size in zip(sel, sizes))


def _regroup(mc, gi, **change):
    """mc with fields of its group gi replaced."""
    groups = list(mc.groups)
    groups[gi] = replace(groups[gi], **change)
    return replace(mc, groups=tuple(groups))


def _rebase(mc, add=None):
    """mc with its last base position dropped, or moved to `add`."""
    base = dict(mc.base_blocks)
    block = base.pop(max(base))
    if add is not None:
        base[add] = block
    return replace(mc, base_blocks=base)


class TestVerifierRejectsHostileSets:
    """Sets that re-hash without error at face value but claim nothing."""

    # one row per rejection rule of MulticollisionSet.validate; the mirror
    # set's groups cover positions 16..9 and 8..1, its base blocks 17..l
    MALFORMED = {
        "duplicate-position-in-group": (
            lambda mc: _regroup(mc, 0, positions=mc.groups[0].positions[:-1] + (16,)),
            "cover every position exactly once"),
        "groups-share-a-position": (
            lambda mc: _regroup(mc, 1, positions=mc.groups[1].positions[:-1] + (16,)),
            "cover every position exactly once"),
        "group-position-also-base": (
            lambda mc: _regroup(mc, 1, positions=mc.groups[1].positions[:-1] + (17,)),
            "cover every position exactly once"),
        "missing-position": (lambda mc: _rebase(mc), "cover every position exactly once"),
        "position-0": (lambda mc: _rebase(mc, 0), "cover every position exactly once"),
        "position-length-plus-1": (lambda mc: _rebase(mc, mc.length + 1),
                                   "cover every position exactly once"),
        "one-choice": (lambda mc: _regroup(mc, 0, choices=mc.groups[0].choices[:1]),
                       "at least two choices"),
        "wrong-width": (lambda mc: _regroup(mc, 0, choices=(mc.groups[0].choices[0],
                                                            mc.groups[0].choices[1][:-1])),
                        "choice width must match"),
        "repeated-choice": (lambda mc: _regroup(mc, 0, choices=mc.groups[0].choices[:1] * 2),
                            "repeats a choice"),
        "wrong-r": (lambda mc: replace(mc, r=mc.r + 1), "is not 2\\^3"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_rejects_each_malformed_set_without_a_query(self, case):
        o, mc = self._mirror()
        assert [g.positions for g in mc.groups] == [tuple(range(16, 8, -1)), tuple(range(8, 0, -1))]
        mutate, message = self.MALFORMED[case]
        bad = mutate(mc)
        with pytest.raises(ValueError, match=message):
            bad.validate()
        audit = o.clone()
        outcome = verify_multicollision(audit, mirror_schedule(), 0, bad)
        assert not outcome.ok and outcome.checked == 0
        assert audit.query_count == 0

    def _mirror(self):
        o = CompressionOracle(8, 16, seed=34)
        mc, report = generalized_attack(o, mirror_schedule(), 2, 8, 2)
        assert report.verify_ok
        return o, mc

    def test_rejects_word_missing_positions(self):
        # a word over one base position leaves every group unhashed
        o, mc = self._mirror()
        forged = schedule_from_words([()] * (mc.length - 1) + [(min(mc.base_blocks),)])
        assert not verify_multicollision(o.clone(), forged, 0, mc)

    @pytest.mark.parametrize("where", ["base", "group", "negative"])
    def test_rejects_out_of_range_block(self, where):
        o, mc = self._mirror()
        base, groups = dict(mc.base_blocks), list(mc.groups)
        if where == "group":
            g = groups[1]
            choice = (1 << 16,) + g.choices[0][1:]
            groups[1] = CollisionGroup(g.positions, (choice,) + g.choices[1:])
        else:
            base[max(base)] = (1 << 16) + 5 if where == "base" else -1
        bad = MulticollisionSet(mc.length, tuple(groups), base, mc.r)
        outcome = verify_multicollision(o.clone(), mirror_schedule(), 0, bad)
        assert not outcome and outcome.checked == 0

    def test_rejects_out_of_range_h0(self):
        o, mc = self._mirror()
        assert not verify_multicollision(o.clone(), mirror_schedule(), 1 << 8, mc)

    def test_rejects_empty_set(self):
        o = CompressionOracle(8, 16, seed=35)
        empty = MulticollisionSet(0, (), {}, 0)
        assert not verify_multicollision(o, identity_schedule(), 0, empty)

    @pytest.mark.parametrize("field,value", [
        ("length", 3.0), ("r", "3"), ("r", True), ("positions", [1.5]),
        ("choices", [["7"], [8]]), ("base_blocks", [[1, 2.5]]),
    ])
    def test_from_dict_rejects_non_integers(self, field, value):
        o = CompressionOracle(8, 16, seed=26)
        data = joux_attack(o, 0, 3)[0].to_dict()
        assert MulticollisionSet.from_dict(data).to_dict() == data
        if field in ("positions", "choices"):
            data["groups"][0][field] = value
        else:
            data[field] = value
        with pytest.raises((TypeError, ValueError)):
            MulticollisionSet.from_dict(data)

    @pytest.mark.parametrize("value", [3.0, "3", True, None, IntEnum("E", "A").A],
                             ids=["float", "str", "bool", "none", "int-enum"])
    @pytest.mark.parametrize("path", [
        ("length",), ("r",), ("groups", 0, "positions", 1), ("groups", 0, "choices", 1, 0),
        ("base_blocks", 1, 0), ("base_blocks", 1, 1),
    ], ids=["length", "r", "position", "choice-block", "base-position", "base-block"])
    def test_from_dict_rejects_a_non_integer_in_each_field(self, path, value):
        mc = MulticollisionSet(5, (CollisionGroup((2, 4), ((5, 6), (7, 8))),),
                               {1: 9, 3: 10, 5: 11}, 1)
        data = mc.to_dict()
        assert MulticollisionSet.from_dict(data) == mc
        *where, last = path
        target = data
        for key in where:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError, match="integers only"):
            MulticollisionSet.from_dict(data)


class TestTableCollision:
    def test_first_bucket_to_fill_in_draw_order(self):
        values = {1: "a", 2: "b", 3: "a", 4: "b", 5: "a"}
        assert table_collision(values.get, iter(values), 3) == ((1, 3, 5), "a")
        assert table_collision(values.get, iter(values)) == ((1, 3), "a")

    def test_none_when_candidates_run_out(self):
        assert table_collision(lambda x: x, iter(range(10))) is None

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_value_to_list_reference(self, k):
        rng = random.Random(400 + k)
        for _ in range(200):
            # a short stream over few values often has no k-collision
            values = [rng.randrange(rng.choice((3, 8, 40)))
                      for _ in range(rng.randint(0, 30))]
            ints = range(len(values))
            lists = [[i] for i in ints]  # unhashable candidates
            assert table_collision(values.__getitem__, iter(ints), k) == \
                reference_table_collision(values.__getitem__, ints, k)
            assert table_collision(lambda c: values[c[0]], iter(lists), k) == \
                reference_table_collision(lambda c: values[c[0]], lists, k)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            table_collision(lambda x: x, iter(range(10)), 1)


class TestGeneralizedAttack:
    def test_q1_degenerates_to_joux(self):
        o = CompressionOracle(8, 16, seed=27)
        mc, report = generalized_attack(o, identity_schedule(), 1, 8, 3)
        assert report.verify_ok
        assert report.p == 1 and report.l == 3
        assert len(mc.groups) == 3
        assert all(len(g.positions) == 1 for g in mc.groups)

    def test_q2_mirror_n8(self):
        o = CompressionOracle(8, 16, seed=28)
        mc, report = generalized_attack(o, mirror_schedule(), 2, 8, 2)
        assert report.l == 241
        assert report.verify_ok
        assert report.attack_queries <= report.bound == complexity_bound(
            8, 2, attack_threshold(8, 2, 2))
        messages = list(mc.messages())
        assert len(set(messages)) == 4
        digests = {gihf_eval(o.clone(), mirror_schedule(), 0, msg) for msg in messages}
        assert len(digests) == 1

    @pytest.mark.parametrize("n,seed", [(8, 72), (12, 73)])
    def test_one_stream_fills_outside_b_first(self, n, seed):
        # the "joux" stream gives each position outside B its filler, in
        # position order, then level 1's candidates, whose pairs the
        # level-2 choices are built from
        mc, report = _two_permutation_attack(n, seed)
        subalphabet = find_attack_structure(_two_permutation_word(n, seed), n, 2, 2).subalphabet
        outside = sorted(set(range(1, mc.length + 1)) - set(subalphabet))
        assert sorted(mc.base_blocks) == outside
        skip = len(outside)
        stream = reference_sampler_stream(
            n + 8, derive_seed(seed, "joux"), skip + report.level_queries[0])
        assert [mc.base_blocks[pos] for pos in outside] == stream[:skip]
        chosen = {blk for g in mc.groups for choice in g.choices for blk in choice}
        assert chosen <= set(stream[skip:])

    def test_stage_accounting(self):
        o = CompressionOracle(8, 16, seed=29)
        mc, report = generalized_attack(o, mirror_schedule(), 2, 8, 2)
        # the attack is the fresh oracle's only querier; the levels include
        # fixed filler hashing, so they bound the stages
        assert report.attack_queries == o.query_count
        assert sum(report.stage_queries) <= report.attack_queries

    def test_parameter_validation(self):
        o = CompressionOracle(8, 16, seed=30)
        with pytest.raises(ValueError):
            generalized_attack(o, mirror_schedule(), 2, 16, 2)  # n mismatch
        with pytest.raises(ValueError):
            generalized_attack(o, mirror_schedule(), 1, 8, 2)  # word not 1-bounded
        with pytest.raises(ValueError):
            generalized_attack(o, mirror_schedule(), 2, 8, 0)
        # 8.0 == oracle.n passes the equality check; the threshold refuses it
        with pytest.raises(TypeError, match="hash length n must be an integer"):
            generalized_attack(o, mirror_schedule(), 2, 8.0, 2)

    def test_file_schedule_must_cover_required_length(self):
        from gihflab.hashsim import schedule_from_words
        o = CompressionOracle(8, 16, seed=31)
        short = schedule_from_words([(1,)])
        with pytest.raises(ValueError, match="241"):
            generalized_attack(o, short, 2, 8, 2)

    def test_oversized_search_refused_before_the_schedule_word(self):
        # l = attack_threshold(4, 1, 3) = 256^4: the C(l - 1, 2) three-part
        # factorizations alone far exceed find_structure's cap
        def generator(l):
            raise AssertionError(f"schedule word for l = {l} built")

        o = CompressionOracle(4, 8, seed=34)
        with pytest.raises(ValueError, match="factorizations"):
            generalized_attack(o, Schedule("never", generator), 3, 4, 1)

    def test_mirror_multicollisions_stay_polynomial(self):
        # 2-bounded mirror schedules yield verified collisions with query
        # counts below the stated bound for growing r at fixed n
        for r in (1, 2):
            o = CompressionOracle(8, 16, seed=32 + r)
            mc, report = generalized_attack(o, mirror_schedule(), 2, 8, r)
            assert report.verify_ok
            assert report.attack_queries <= complexity_bound(8, 2, attack_threshold(8, r, 2))

    def test_bound_holds_across_ten_seeded_runs(self):
        for n, seeds in ((8, range(8)), (16, range(2))):
            for seed in seeds:
                o = CompressionOracle(n, n + 8, seed=500 + seed)
                _, report = generalized_attack(o, mirror_schedule(), 2, n, 2)
                assert report.verify_ok
                assert report.attack_queries <= complexity_bound(n, 2, attack_threshold(n, 2, 2))


class TestThreeLevelAttack:
    """The engine on p = 3 certificates over three shuffled permutations of
    1..n^4 k^5, whose subalphabet B comes from factorization_subset."""

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2)])
    def test_three_permutations(self, n, k):
        alpha, cert = three_permutations(n, k)
        assert verify_attack_structure(alpha, cert)
        oracle, sched, mc, report = _certified_attack(alpha, cert, 3, 60 + k)
        assert report.verify_ok and report.p == 3 and report.r == k
        # the bound covers the l letters attacked: 7,680 and 245,760
        l = n ** 4 * k ** 5
        assert report.attack_queries <= report.bound == complexity_bound(n, 3, l)
        assert len(report.level_queries) == 3
        assert sum(report.level_queries) == report.attack_queries
        outcome = verify_multicollision(oracle.clone(), sched, 0, mc)
        assert outcome.ok and outcome.complete and outcome.checked == 2 ** k

    def test_search_finds_the_three_part_certificate(self):
        # the q = 3 search itself, whose p >= 3 branch takes B from
        # factorization_subset under the decision's splits
        alpha, _ = three_permutations(4, 1)
        cert = find_attack_structure(alpha, 4, 1, 3)
        assert (cert.p, len(cert.subalphabet), cert.splits) == (3, 16, (256, 512))
        assert verify_attack_structure(alpha, cert)


class TestResumedLevelWalk:
    """A collapse-level candidate is an index over the unit's member groups
    and resumes the previous candidate's walk at the first read, among the
    members whose picks flip, where the two choices differ.  Every level
    must equal tests/support.py::rewalk_level, which hashes each product-order
    candidate's span from its start."""

    @staticmethod
    def _run(monkeypatch, walk, attack):
        levels = []

        def logged(*args):
            levels.append(walk(*args))
            return levels[-1]

        monkeypatch.setattr(attacks, "_walk_level", logged)
        return (levels, *attack())

    @pytest.mark.parametrize("build", [_mirror_one_part, lambda: _doubled_letter(8)])
    def test_hand_built_certificates_read_a_slot_twice(self, build):
        alpha, cert = build()
        assert verify_attack_structure(alpha, cert)
        assert any(part.count(x) > 1 for part in split_word(alpha, cert.splits)
                   for x in cert.subalphabet)

    def test_exhausted_collapse_search_names_the_unit(self):
        # one member with two choices: two candidates, which reach one state
        # at n = 60 with probability 2^-60
        oracle = CompressionOracle(60, 64, seed=80)
        member = CollisionGroup((2, 3), ((1, 2), (3, 4)))
        with pytest.raises(ConstructionError, match=r"positions \(2, 3\)"):
            _walk_level(oracle, (1, 2, 3), [((2, 3), (member,))], {1: 5}, 0)
        # the filler, then both candidates' two-step spans: their choices
        # differ at the span's first read
        assert oracle.raw_calls == oracle.query_count == 1 + 2 * 2

    def test_untiled_block_raises(self):
        # a block must be exactly the positions of the groups it touches
        groups = [CollisionGroup((1, 2), ((1, 2), (3, 4)))]
        with pytest.raises(ConstructionError, match="do not tile the block"):
            list(_inherited_units(groups, [(1,)]))

    @pytest.mark.parametrize("case", LEVEL_WALK_CASES)
    def test_levels_equal_the_rewalk_reference(self, monkeypatch, case):
        attack = LEVEL_WALK_CASES[case]
        levels, mc, report = self._run(monkeypatch, _walk_level, attack)
        expected, ref_mc, ref_report = self._run(monkeypatch, rewalk_level, attack)
        # per level: the groups, the outgoing state and the stage queries
        assert levels == expected
        assert mc == ref_mc and report.verify_ok
        assert report.stage_queries == ref_report.stage_queries
        assert report.level_queries == ref_report.level_queries
        assert report.attack_queries <= report.raw_calls <= ref_report.raw_calls
        if case.startswith("two-permutations"):
            # each candidate resumes the previous one's walk; hashing every
            # candidate's span from its start made 6.4x the queries at n = 12
            # on the lexicographic certificate, whose level-2 spans run over
            # filler blocks, and 1.5x on find_attack_structure's, whose do not
            assert report.raw_calls <= 1.05 * report.attack_queries


class TestComplexityBound:
    def test_q2_reference_value(self):
        assert complexity_bound(16, 2, attack_threshold(16, 2, 2)) == 1_271_040

    def test_q1_joux_convention(self):
        assert complexity_bound(16, 1, attack_threshold(16, 4, 1)) == int(2.5 * 1 * 4 * 256)

    def test_q3_upper_bound_regime(self):
        # N-hat = attack_threshold(4, 2, 3) = (4^4 * 2^5)^4 = 8192^4, the
        # length of the word the attack builds, times 2.5 * 3 * 2^2
        assert complexity_bound(4, 3, attack_threshold(4, 2, 3)) == 30 * 8192 ** 4

    def test_closed_forms_up_to_q2(self):
        # N-hat is r at q = 1 and (nr)^2 - nr + 1 at q = 2
        for n in range(2, 9, 2):
            for r in range(1, 5):
                scale = 2.5 * 2 ** (n // 2)
                assert complexity_bound(n, 1, attack_threshold(n, r, 1)) == scale * r
                assert complexity_bound(n, 2, attack_threshold(n, r, 2)) == \
                    scale * 2 * ((n * r) ** 2 - n * r + 1)

    def test_bound_reads_the_length_given(self):
        # no threshold is built, so a q whose m^(2^(q-1)) would overflow a
        # float or fill memory costs one product
        assert complexity_bound(5, 6, 1) == pytest.approx(2.5 * 6 * 4 * 2 ** 0.5)
        assert complexity_bound(16, 64, 993) == 2.5 * 64 * 993 * 256

    def test_odd_n_gives_float(self):
        value = complexity_bound(9, 1, 1)
        assert isinstance(value, float)
        assert value == pytest.approx(2.5 * 2 ** 4.5)

    def test_exact_int_for_even_n_float_for_odd_n(self):
        # 2^(n/2) is even for every even n >= 2, so 5/2 * q * l * 2^(n/2)
        # is the integer 5 * q * l * 2^(n/2 - 1)
        for n in range(1, 65):
            for q in (1, 2, 3):
                for l in (1, 7, 993):
                    value = complexity_bound(n, q, l)
                    if n % 2:
                        assert type(value) is float
                        assert value == pytest.approx(2.5 * q * l * 2 ** (n / 2), rel=1e-12)
                    else:
                        assert type(value) is int
                        assert value == 5 * q * l * 2 ** (n // 2 - 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            complexity_bound(0, 1, 1)
        with pytest.raises(ValueError):
            complexity_bound(8, 0, 1)
        with pytest.raises(ValueError):
            complexity_bound(8, 1, 0)
