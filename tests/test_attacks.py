import random
import statistics

import pytest

from gihflab.attacks import (
    CollisionGroup,
    MulticollisionSet,
    _frontier_digests,
    block_pair_collision,
    complexity_bound,
    generalized_attack,
    joux_attack,
    verify_multicollision,
)
from gihflab.hashsim import (
    CompressionOracle,
    Schedule,
    gihf_eval,
    identity_schedule,
    mirror_schedule,
    schedule_from_words,
    table_collision,
)
from gihflab.nesting import attack_threshold

from support import enumerated_digests, random_two_permutation_word


class TestBlockPairCollision:
    def test_pair_verifies_and_chains(self):
        o = CompressionOracle(8, 16, seed=21)
        b1, b2, h_next, queries = block_pair_collision(o, 0)
        assert b1 != b2
        probe = o.clone()
        assert probe.compress(0, b1) == probe.compress(0, b2) == h_next
        assert queries == o.query_count

    def test_mean_cost_n8(self):
        costs = []
        for s in range(200):
            o = CompressionOracle(8, 16, seed=s)
            costs.append(block_pair_collision(o, 0)[3])
        assert 15 <= statistics.mean(costs) <= 60

    def test_mean_cost_n16(self):
        costs = []
        for s in range(30):
            o = CompressionOracle(16, 24, seed=s)
            costs.append(block_pair_collision(o, 0)[3])
        assert 350 <= statistics.mean(costs) <= 1100


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
                assert _frontier_digests(passed.compress, alpha, 0, mc, 1 << 16) == set(digests)
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


class TestVerifierRejectsHostileSets:
    """Sets that re-hash without error at face value but claim nothing."""

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

    def test_rejects_word_above_declared_bound(self):
        o, mc = self._mirror()
        understated = Schedule("mirror", 1, mirror_schedule().generator)
        assert not verify_multicollision(o.clone(), understated, 0, mc)

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


class TestTableCollision:
    def test_first_bucket_to_fill_in_draw_order(self):
        values = {1: "a", 2: "b", 3: "a", 4: "b", 5: "a"}
        assert table_collision(values.get, iter(values), 3) == ((1, 3, 5), "a")
        assert table_collision(values.get, iter(values)) == ((1, 3), "a")

    def test_none_when_candidates_run_out(self):
        assert table_collision(lambda x: x, iter(range(10))) is None


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
        assert report.attack_queries <= report.bound == complexity_bound(8, 2, 2)
        messages = list(mc.messages())
        assert len(set(messages)) == 4
        digests = {gihf_eval(o.clone(), mirror_schedule(), 0, msg) for msg in messages}
        assert len(digests) == 1

    def test_stage_accounting(self):
        o = CompressionOracle(8, 16, seed=29)
        mc, report = generalized_attack(o, mirror_schedule(), 2, 8, 2)
        # level sums include fixed filler hashing, so they bound the stages
        assert sum(report.level_queries) == report.attack_queries
        assert sum(report.stage_queries) <= report.attack_queries

    def test_parameter_validation(self):
        o = CompressionOracle(8, 16, seed=30)
        with pytest.raises(ValueError):
            generalized_attack(o, mirror_schedule(), 2, 16, 2)  # n mismatch
        with pytest.raises(ValueError):
            generalized_attack(o, mirror_schedule(), 1, 8, 2)  # schedule bound > q
        with pytest.raises(ValueError):
            generalized_attack(o, mirror_schedule(), 2, 8, 0)

    def test_file_schedule_must_cover_required_length(self):
        from gihflab.hashsim import schedule_from_words
        o = CompressionOracle(8, 16, seed=31)
        short = schedule_from_words([(1,)])
        with pytest.raises(ValueError, match="241"):
            generalized_attack(o, short, 2, 8, 2)

    def test_mirror_multicollisions_stay_polynomial(self):
        # 2-bounded mirror schedules yield verified collisions with query
        # counts below the stated bound for growing r at fixed n
        for r in (1, 2):
            o = CompressionOracle(8, 16, seed=32 + r)
            mc, report = generalized_attack(o, mirror_schedule(), 2, 8, r)
            assert report.verify_ok
            assert report.attack_queries <= complexity_bound(8, 2, r)

    def test_bound_holds_across_ten_seeded_runs(self):
        for n, seeds in ((8, range(8)), (16, range(2))):
            for seed in seeds:
                o = CompressionOracle(n, n + 8, seed=500 + seed)
                _, report = generalized_attack(o, mirror_schedule(), 2, n, 2)
                assert report.verify_ok
                assert report.attack_queries <= complexity_bound(n, 2, 2)


class TestComplexityBound:
    def test_q2_reference_value(self):
        assert complexity_bound(16, 2, 2) == 1_271_040

    def test_q1_joux_convention(self):
        assert complexity_bound(16, 1, 4) == int(2.5 * 1 * 4 * 256)

    def test_q3_upper_bound_regime(self):
        # m = 4^4 * 2^3 = 2048, N-hat = 2048^4, times 2.5 * 3 * 2^2
        assert complexity_bound(4, 3, 2) == 30 * 2048 ** 4

    def test_odd_n_gives_float(self):
        value = complexity_bound(9, 1, 1)
        assert isinstance(value, float)
        assert value == pytest.approx(2.5 * 2 ** 4.5)

    def test_custom_constant(self):
        assert complexity_bound(16, 2, 2, a_tilde=5.0) == 2 * 1_271_040

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            complexity_bound(0, 1, 1)
        with pytest.raises(ValueError):
            complexity_bound(8, 0, 1)
        with pytest.raises(ValueError):
            complexity_bound(8, 1, 0)
