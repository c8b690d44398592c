import random
import re
import statistics
import time
import tracemalloc
from collections import Counter
from itertools import islice

import pytest

from gihflab.attacks import generalized_attack, joux_attack
from gihflab.hashsim import (
    _BATCH,
    _segments,
    CompressionOracle,
    Lookahead,
    birthday_search,
    block_stream,
    derive_seed,
    f_alpha,
    f_plus,
    gihf_eval,
    identity_schedule,
    mirror_schedule,
    schedule_from_words,
    table_collision,
    validate_schedule_word,
)

from support import reference_compress, reference_sampler_stream


class TestCompressionOracle:
    def test_memoization_contract(self):
        o = CompressionOracle(8, 16, seed=1)
        first = o.compress(3, 200)
        second = o.compress(3, 200)
        assert first == second
        assert o.query_count == 1
        assert o.raw_calls == 2

    def test_equal_seeds_equal_function(self):
        a = CompressionOracle(12, 20, seed=99)
        b = CompressionOracle(12, 20, seed=99)
        rng = random.Random(0)
        for _ in range(200):
            h = rng.randrange(1 << 12)
            blk = rng.randrange(1 << 20)
            assert a.compress(h, blk) == b.compress(h, blk)

    def test_different_seeds_differ_somewhere(self):
        a = CompressionOracle(16, 24, seed=1)
        b = CompressionOracle(16, 24, seed=2)
        assert any(a.compress(0, i) != b.compress(0, i) for i in range(64))

    def test_width_mismatch(self):
        o = CompressionOracle(8, 16, seed=1)
        with pytest.raises(ValueError):
            o.compress(256, 0)
        with pytest.raises(ValueError):
            o.compress(0, 1 << 16)
        with pytest.raises(ValueError):
            o.compress(-1, 0)

    def test_rejected_calls_count_nothing(self):
        # raw_calls is derived from the memo and its hits, so a call the
        # range checks reject must touch neither
        o = CompressionOracle(8, 16, seed=1)
        rejected = [(-1, 5), (256, 5), (3, -1), (3, 1 << 16)]

        def reject_all(raw, distinct):
            for h, b in rejected:
                with pytest.raises(ValueError):
                    o.compress(h, b)
                assert (o.raw_calls, o.query_count) == (raw, distinct)

        reject_all(0, 0)
        o.compress(3, 5)
        o.compress(3, 6)
        o.compress(3, 5)  # a repeated pair: a memo hit
        reject_all(3, 2)
        assert o.compress(3, 5) == o.compress(3, 5)
        reject_all(5, 2)
        twin = o.clone()
        assert (twin.raw_calls, twin.query_count) == (0, 0)
        with pytest.raises(AttributeError):
            o.raw_calls = 0

    def test_requires_block_longer_than_hash(self):
        with pytest.raises(ValueError):
            CompressionOracle(16, 16, seed=1)

    def test_outputs_in_range(self):
        o = CompressionOracle(5, 9, seed=3)
        assert all(0 <= o.compress(h, b) < 32 for h in range(8) for b in range(8))

    def test_query_count_matches_distinct_pairs(self):
        rng = random.Random(202)
        o = CompressionOracle(6, 10, seed=5)
        seen = set()
        for _ in range(2000):
            h = rng.randrange(64)
            blk = rng.randrange(1024)
            o.compress(h, blk)
            seen.add((h, blk))
            assert o.query_count == len(seen)

    def test_clone_is_counter_isolated(self):
        o = CompressionOracle(8, 16, seed=4)
        o.compress(0, 1)
        twin = o.clone()
        assert twin.query_count == 0
        assert twin.compress(0, 1) == o.compress(0, 1)
        assert o.query_count == 1 and twin.query_count == 1

    def test_coarse_uniformity(self):
        # chi-squared of each output byte over 1e4 random queries; df = 255,
        # so values near 255 are expected and 400 is a generous ceiling
        rng = random.Random(314159)
        o = CompressionOracle(16, 24, seed=2718)
        lo = [0] * 256
        hi = [0] * 256
        n = 10_000
        for _ in range(n):
            v = o.compress(rng.randrange(1 << 16), rng.randrange(1 << 24))
            lo[v & 0xFF] += 1
            hi[(v >> 8) & 0xFF] += 1
        expected = n / 256
        for counts in (lo, hi):
            chi2 = sum((c - expected) ** 2 / expected for c in counts)
            assert chi2 < 400


class TestKernelCrossCheck:
    """compress against the plain transcription of the oracle function, on
    streams that leave a state and come back to it and repeat earlier
    pairs, so that misses at a revisited state, memo hits and blocks of one
    and of several 64-bit chunks interleave."""

    CASES = sorted({(n, m) for n in (1, 8, 24, 63, 64) for m in (n + 1, 64, 65, 200) if m > n})

    @staticmethod
    def _queries(rng, n, m, count):
        states = [rng.getrandbits(n) for _ in range(3)] + [0, (1 << n) - 1]
        blocks = [0, 1, (1 << m) - 1, (1 << min(m, 64)) - 1, 1 << (m - 1)]
        out = []
        h = states[0]
        for _ in range(count):
            if rng.random() < 0.3:
                h = rng.choice(states)  # jump to a state, often one seen before
            if rng.random() < 0.2:
                b = rng.choice(blocks)
            elif out and rng.random() < 0.2:
                h, b = rng.choice(out)  # a memo hit, possibly at another state
            else:
                b = rng.getrandbits(rng.randint(1, m))
            out.append((h, b))
        return out

    @pytest.mark.parametrize("n, m", CASES)
    def test_matches_reference_and_counts(self, n, m):
        rng = random.Random(n * 1000 + m)
        seed = rng.getrandbits(64)
        oracle = CompressionOracle(n, m, seed)
        queries = self._queries(rng, n, m, 400)
        for i, (h, b) in enumerate(queries, 1):
            assert oracle.compress(h, b) == reference_compress(seed, n, h, b)
            assert oracle.raw_calls == i
        assert oracle.query_count == len(set(queries))

        twin = oracle.clone()
        assert twin.query_count == 0 and twin.raw_calls == 0
        for h, b in reversed(queries[-50:]):
            assert twin.compress(h, b) == reference_compress(seed, n, h, b)
        assert twin.query_count == len(set(queries[-50:]))
        assert twin.raw_calls == 50
        assert oracle.query_count == len(set(queries))
        assert oracle.raw_calls == len(queries)


    @pytest.mark.parametrize("n, m", CASES)
    def test_bulk_path_matches_reference_and_counts(self, n, m):
        # warmed batches of every size class, one-chunk blocks next to
        # blocks of 2^64 and above, pairs already in the memo, queries at
        # another state between the warm and its reads, and reads in
        # another order than the warm's
        rng = random.Random(n * 7919 + m)
        seed = rng.getrandbits(64)
        oracle = CompressionOracle(n, m, seed)
        states = [rng.getrandbits(n) for _ in range(3)] + [0, (1 << n) - 1]
        edges = [0, 1, (1 << m) - 1, (1 << min(m, 64)) - 1, 1 << (m - 1)]
        if m > 64:
            edges += [1 << 64, (1 << 64) + 1]
        seen = set()
        calls = 0
        warmed = []  # the blocks of the last warm, at another state

        def read(h, blocks):
            nonlocal calls
            for b in blocks:
                assert oracle.compress(h, b) == reference_compress(seed, n, h, b)
                calls += 1
                seen.add((h, b))
                assert (oracle.raw_calls, oracle.query_count) == (calls, len(seen))

        for size in (1, 37, _BATCH, 2 * _BATCH + 5):
            h, other = rng.sample(states, 2)
            blocks = [rng.getrandbits(rng.randint(1, m)) for _ in range(size)]
            blocks[rng.randrange(size)] = rng.choice(edges)
            if size > 1:
                blocks[-1] = blocks[0]  # a block warmed twice
            read(h, blocks[:size // 3])  # in the memo before the warm
            queue = blocks + edges + [-1]  # -1 is left to compress to refuse
            for start in range(0, len(queue), _BATCH):  # a warm takes one batch
                batch = queue[start:start + _BATCH]
                oracle.warm(h, batch)
                assert (oracle.raw_calls, oracle.query_count) == (calls, len(seen))
                read(other, blocks[:5])  # another state, then back
                shuffled = [b for b in batch if b >= 0]
                rng.shuffle(shuffled)
                read(h, shuffled)
                read(other, blocks[-5:])
                read(h, warmed[-20:])  # the last warm's blocks, at this warm's state
                warmed = shuffled

    def test_warm_takes_at_most_one_batch(self):
        oracle = CompressionOracle(8, 16, seed=1)
        with pytest.raises(ValueError, match=f"a warm takes at most {_BATCH} blocks, not {_BATCH + 1}"):
            oracle.warm(0, range(_BATCH + 1))
        oracle.warm(0, range(_BATCH))
        assert (oracle.raw_calls, oracle.query_count) == (0, 0)

    def test_warm_refuses_a_state_outside_the_range(self):
        oracle = CompressionOracle(8, 16, seed=1)
        for h in (-1, 256):
            with pytest.raises(ValueError, match=f"hash value {h} outside 8-bit range"):
                oracle.warm(h, [1, 2, 3])
        assert (oracle.raw_calls, oracle.query_count) == (0, 0)

    @pytest.mark.parametrize("block", [3.0, "3", None])
    def test_a_block_that_is_not_an_int_is_refused_by_name(self, block):
        oracle = CompressionOracle(8, 16, seed=1)
        refusal = f"^block {re.escape(repr(block))} must be an integer, not {type(block).__name__}$"
        with pytest.raises(TypeError, match=refusal):
            oracle.compress(0, block)
        with pytest.raises(TypeError, match=refusal):
            oracle.warm(0, [1, block])
        assert (oracle.raw_calls, oracle.query_count) == (0, 0)

    @pytest.mark.parametrize("state", [3.0, "3", None])
    def test_a_state_that_is_not_an_int_is_refused_by_name(self, state):
        # 3.0 == 3 and hashes alike, so after its int twin was queried and
        # warmed it must still be refused, not read from the memo or warm
        oracle = CompressionOracle(8, 16, seed=1)
        refusal = f"^hash value {re.escape(repr(state))} must be an integer, not {type(state).__name__}$"
        with pytest.raises(TypeError, match=refusal):
            oracle.compress(state, 200)
        oracle.compress(3, 200)
        oracle.warm(3, [201])
        for block in (200, 201):
            with pytest.raises(TypeError, match=refusal):
                oracle.compress(state, block)
        with pytest.raises(TypeError, match=refusal):
            oracle.warm(state, [1, 2])
        assert (oracle.raw_calls, oracle.query_count) == (1, 1)

    def test_a_bool_state_is_its_int(self):
        oracle = CompressionOracle(8, 16, seed=1)
        assert oracle.compress(True, 5) == reference_compress(1, 8, 1, 5)
        assert oracle.compress(1, 5) == reference_compress(1, 8, 1, 5)
        oracle.warm(False, [7])
        assert oracle.compress(0, 7) == reference_compress(1, 8, 0, 7)
        assert (oracle.raw_calls, oracle.query_count) == (3, 2)


class TestMemoCounts:
    """query_count and raw_calls against a set of the distinct pairs and a
    call count, read after every call, through every way a query reaches
    the memo: a scalar miss, a warmed miss and a hit, at a state whose table
    the scalar path opened before its first warm, under a second warm over
    blocks already queried, with blocks of 2^64 and above, and on a clone
    made partway."""

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_match_a_set_of_pairs(self, seed):
        rng = random.Random(seed)
        n, m = 8, 80
        oracle = CompressionOracle(n, m, seed)
        states = rng.sample(range(1 << n), 4)
        pool = [rng.getrandbits(rng.choice((8, 40, 64))) for _ in range(80)]
        pool += [1 << 64, (1 << 64) + 1, (1 << m) - 1]
        counts = {oracle: (set(), [0])}

        def query(o, h, b):
            seen, calls = counts[o]
            assert o.compress(h, b) == reference_compress(seed, n, h, b)
            seen.add((h, b))
            calls[0] += 1
            assert (o.query_count, o.raw_calls) == (len(seen), calls[0])

        h = states[0]
        for b in pool[:10]:  # the scalar path opens h's table
            query(oracle, h, b)
        for _ in range(2):  # a warm, then a second one, over queried blocks
            oracle.warm(h, pool[5:40])
            for b in pool[:45]:
                query(oracle, h, b)
        for step in range(1500):
            if step == 700:
                twin = oracle.clone()
                counts[twin] = (set(), [0])
            h = rng.choice(states)
            if rng.random() < 0.05:
                rng.choice(list(counts)).warm(h, rng.sample(pool, 40))
                continue
            for o in counts:
                query(o, h, rng.choice(pool))
        for o in counts:
            assert all(o._memo.values())  # no state's table is empty
        assert counts[oracle][1][0] > counts[twin][1][0]  # each counted its own calls

    def test_counts_stay_constant_time(self):
        # 20,000 states, each with its own table: reading the counts must
        # not walk them
        oracle = CompressionOracle(16, 24, seed=3)
        for h in range(20_000):
            oracle.compress(h, h)
            oracle.compress(h, h + 1)
        assert (oracle.query_count, oracle.raw_calls) == (40_000, 40_000)
        bound = 2.0  # seconds; O(1) reads take well under a tenth of it
        started = time.perf_counter()
        for _ in range(200):
            for _ in range(1000):
                oracle.query_count
                oracle.raw_calls
            elapsed = time.perf_counter() - started
            assert elapsed < bound


class TestSegments:
    """A segment of a block stream, packed or not, is the affine formula of
    tests/support.py: every block of it, and for m <= 63 every one of the
    _BATCH lanes of its packed integer, whose lanes past a short segment's
    end hold the walk's next values mod 2^m."""

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 24, 32, 55, 56, 63, 64, 65, 130])
    def test_segments_are_the_affine_formula(self, m):
        size = 1 << m
        for seed in (0, 5, 2 ** 64 - 1):
            segment = _segments(m, seed)
            straddle = max(0, size - _BATCH // 2)  # runs past the last block
            for start in (0, 1, 255, 256, straddle):
                packed, blocks = segment(start)
                assert list(blocks) == reference_sampler_stream(
                    m, seed, max(0, min(_BATCH, size - start)), start)
                if m > 63:
                    assert packed is None
                    continue
                lanes = [packed >> 64 * j & (1 << 64) - 1 for j in range(_BATCH)]
                assert lanes == reference_sampler_stream(m, seed, _BATCH, start)
                assert packed >> 64 * _BATCH == 0

    @pytest.mark.parametrize("m", [2, 10, 24, 63, 64, 65])
    def test_a_warm_fed_a_segment_gives_the_reference_values(self, m):
        n = min(m - 1, 16)
        seed = 7 * m
        oracle = CompressionOracle(n, m, seed)
        segment = _segments(m, seed=m)
        calls, seen = 0, set()
        for h, start in ((0, 0), ((1 << n) - 1, 1), (3 % (1 << n), max(0, (1 << m) - 9))):
            packed, blocks = segment(start)
            oracle.warm(h, blocks, packed)
            assert (oracle.raw_calls, oracle.query_count) == (calls, len(seen))
            for b in blocks:
                assert oracle.compress(h, b) == reference_compress(seed, n, h, b)
                seen.add((h, b))
            calls += len(blocks)
            assert (oracle.raw_calls, oracle.query_count) == (calls, len(seen))


class TestLookahead:
    """A Lookahead yields its stream's blocks in order, whatever state each
    reader warms them at and wherever a reader stops, and its index is the
    first block no reader has drawn."""

    @pytest.mark.parametrize("m", [10, 65])
    def test_readers_take_turns_in_stream_order(self, m):
        count = 3 * _BATCH + 40
        oracle = CompressionOracle(8, m, seed=3)
        lookahead = Lookahead(oracle, seed=4)
        read = []
        # each reader stops partway into a segment, the next one at its own
        # state starts with the blocks the last one left
        for h, take in ((0, 5), (7, _BATCH), (7, 1), (200, _BATCH + 30)):
            read += islice(lookahead.at(h), take)
            assert lookahead.index == len(read)
        read += islice(block_stream(m, seed=4), lookahead.index, count)  # the rest of the stream
        assert read == reference_sampler_stream(m, 4, count)
        assert oracle.raw_calls == 0

    def test_last_blocks_then_the_exhaustion_error(self):
        oracle = CompressionOracle(2, 3, seed=1)
        lookahead = Lookahead(oracle, seed=2)
        read = list(islice(lookahead.at(0), 5)) + list(islice(lookahead.at(1), 3))
        assert read == reference_sampler_stream(3, 2, 8)
        for h in (1, 2):
            with pytest.raises(ValueError, match="block space of 3-bit blocks exhausted"):
                next(lookahead.at(h))

    def test_a_reader_from_a_start_reads_on_to_the_end(self):
        oracle = CompressionOracle(8, 10, seed=1)
        lookahead = Lookahead(oracle, seed=2, start=1020)
        assert list(islice(lookahead.at(0), 2)) == reference_sampler_stream(10, 2, 2, 1020)
        reader = lookahead.at(5)
        assert [next(reader), next(reader)] == reference_sampler_stream(10, 2, 2, 1022)
        with pytest.raises(ValueError, match="block space of 10-bit blocks exhausted"):
            next(reader)
        assert lookahead.index == 1024


class RecordingOracle(CompressionOracle):
    """An oracle that records the length of every batch it is warmed with,
    and whether the batch came packed."""

    def __init__(self, n, m, seed):
        super().__init__(n, m, seed)
        self.batches = []
        self.packed = []

    def warm(self, h, blocks, packed=None):
        self.batches.append(len(blocks))
        self.packed.append(packed is not None)
        super().warm(h, blocks, packed)


class TestWholeBatches:
    """Every warm a Lookahead makes gets _BATCH blocks unless its stream
    ends: a search's leftover is warmed with fresh blocks behind it.  A
    stream with m <= 63 hands every batch over packed."""

    def test_the_attacks_and_the_birthday_search_warm_whole_batches(self):
        joux = RecordingOracle(16, 24, seed=5)
        joux_attack(joux, 0, 8)
        q2 = RecordingOracle(12, 64, seed=6)
        generalized_attack(q2, mirror_schedule(), 2, 12, 2)
        birthday = [RecordingOracle(16, 20, seed) for seed in range(1, 6)]
        for oracle in birthday:
            birthday_search(oracle, 3, 3)
        for oracle in (joux, q2, *birthday):
            assert oracle.batches and set(oracle.batches) == {_BATCH}
            assert set(oracle.packed) == {oracle.m <= 63}
        # the stages leave leftovers, so the whole batches overlap them
        assert len(joux.batches) > 8 and len(q2.batches) > 8

    def test_a_short_batch_only_at_the_streams_end(self):
        # 8 blocks: the first warm holds the whole space, the next the
        # leftover, both drawn once the stream had ended
        oracle = RecordingOracle(2, 3, seed=1)
        lookahead = Lookahead(oracle, seed=2)
        read = list(islice(lookahead.at(0), 5)) + list(islice(lookahead.at(1), 3))
        assert read == reference_sampler_stream(3, 2, 8)
        with pytest.raises(ValueError, match="block space of 3-bit blocks exhausted"):
            next(lookahead.at(2))
        assert oracle.batches == [8, 3]

        # 1024 blocks: readers stopping partway into batches leave leftovers
        # that are topped up, and only the last warm, after the stream's
        # end, is short
        oracle = RecordingOracle(8, 10, seed=1)
        lookahead = Lookahead(oracle, seed=2)
        read = []
        for h, take in ((0, 5), (1, _BATCH + 7), (2, 300), (3, 1)):
            read += islice(lookahead.at(h), take)
        read += islice(lookahead.at(4), 1024 - len(read))
        assert read == reference_sampler_stream(10, 2, 1024)
        with pytest.raises(ValueError, match="block space of 10-bit blocks exhausted"):
            next(lookahead.at(5))
        assert oracle.batches == [_BATCH] * 7 + [1024 - 825]


class TestIteratedEvaluators:
    def test_single_block_is_compress(self):
        o = CompressionOracle(8, 16, seed=6)
        assert f_plus(o, 5, [77]) == o.compress(5, 77)

    def test_two_blocks_unrolled(self):
        o = CompressionOracle(8, 16, seed=6)
        assert f_plus(o, 5, [77, 78]) == o.compress(o.compress(5, 77), 78)

    def test_empty_sequence_rejected(self):
        o = CompressionOracle(8, 16, seed=6)
        with pytest.raises(ValueError):
            f_plus(o, 5, [])

    def test_split_associativity(self):
        rng = random.Random(203)
        o = CompressionOracle(8, 16, seed=7)
        for _ in range(100):
            blocks = [rng.randrange(1 << 16) for _ in range(rng.randint(2, 8))]
            cut = rng.randint(1, len(blocks) - 1)
            whole = f_plus(o, 9, blocks)
            parts = f_plus(o, f_plus(o, 9, blocks[:cut]), blocks[cut:])
            assert whole == parts

    def test_identity_schedule_word(self):
        o = CompressionOracle(8, 16, seed=8)
        blocks = [10, 20, 30]
        assert f_alpha(o, 0, blocks, (1, 2, 3)) == f_plus(o, 0, blocks)

    def test_swap_schedule_word(self):
        o = CompressionOracle(8, 16, seed=8)
        assert f_alpha(o, 0, [10, 20], (2, 1)) == o.compress(o.compress(0, 20), 10)

    def test_repeat_schedule_word(self):
        o = CompressionOracle(8, 16, seed=8)
        assert f_alpha(o, 0, [10, 20], (1, 1)) == o.compress(o.compress(0, 10), 10)

    def test_schedule_word_validation(self):
        o = CompressionOracle(8, 16, seed=8)
        # the first symbol out of range is named, and nothing is hashed
        for word, sym in [((1, 3), 3), ((2, 0, 3), 0), ((1, -1), -1), ((-2,), -2)]:
            with pytest.raises(ValueError, match=f"^schedule symbol {sym} out of range 1..2$"):
                f_alpha(o, 0, [10, 20], word)
        with pytest.raises(ValueError):
            f_alpha(o, 0, [10, 20], ())
        assert o.raw_calls == 0
        assert f_alpha(o, 0, [10], (1,)) == o.compress(0, 10)

    def test_gihf_identity_equals_plain_iteration(self):
        o = CompressionOracle(8, 16, seed=9)
        blocks = [4, 5, 6, 7]
        assert gihf_eval(o, identity_schedule(), 1, blocks) == f_plus(o, 1, blocks)

    def test_gihf_mirror_equals_doubled_sequence(self):
        o = CompressionOracle(8, 16, seed=9)
        blocks = [4, 5, 6]
        doubled = blocks + blocks[::-1]
        assert gihf_eval(o, mirror_schedule(), 1, blocks) == f_plus(o, 1, doubled)

    def test_gihf_single_block(self):
        # identity's first schedule word is (1,), so one block means one query
        o = CompressionOracle(8, 16, seed=9)
        assert gihf_eval(o, identity_schedule(), 2, [42]) == o.compress(2, 42)
        assert gihf_eval(o, mirror_schedule(), 2, [42]) == \
            f_plus(o, 2, [42, 42])
        with pytest.raises(ValueError):
            gihf_eval(o, identity_schedule(), 2, [])


class TestSchedules:
    @pytest.mark.parametrize("factory,bound", [(identity_schedule, 1),
                                               (mirror_schedule, 2)])
    def test_families_valid_up_to_2000(self, factory, bound):
        sched = factory()
        for l in (1, 2, 3, 17, 256, 993, 1999, 2000):
            assert max(Counter(validate_schedule_word(sched, l)).values()) == bound

    def test_file_schedule_lookup_and_bound(self):
        sched = schedule_from_words([(1,), (1, 2, 2, 1)])
        assert sched.generator(2) == (1, 2, 2, 1)
        with pytest.raises(ValueError):
            sched.generator(3)

    def test_validate_rejects_broken_words(self):
        gappy = schedule_from_words([(1,), (1, 1)])
        with pytest.raises(ValueError):
            validate_schedule_word(gappy, 2)  # alphabet never reaches symbol 2


class TestBlockStream:
    def test_deterministic_and_distinct(self):
        s1 = block_stream(10, seed=5)
        s2 = block_stream(10, seed=5)
        first = [next(s1) for _ in range(1024)]
        second = [next(s2) for _ in range(1024)]
        assert first == second
        assert len(set(first)) == 1024  # full space, no repeats
        assert all(0 <= b < 1024 for b in first)

    def test_exhaustion(self):
        # every draw past 2^m raises, however it is drawn: a stream that
        # raised once and then ended would let a table search return None
        sampler = block_stream(2, seed=1)
        [next(sampler) for _ in range(4)]
        with pytest.raises(ValueError, match="exhausted"):
            next(sampler)
        with pytest.raises(ValueError, match="exhausted"):
            for _ in sampler:
                pass
        with pytest.raises(ValueError, match="exhausted"):
            next(sampler)

        sampler = block_stream(2, seed=1)
        for _ in range(2):  # four distinct values, then the space runs out
            with pytest.raises(ValueError, match="exhausted"):
                table_collision(lambda choice: choice, zip(sampler))

    @pytest.mark.parametrize("m", [2, 10, 65])
    def test_next_then_iter_is_one_stream(self, m):
        # generalized_attack draws its fillers with next() and then hands
        # the sampler to level 1, which loops over it
        count = min(1 << m, 300)
        for drawn in (0, 1, count // 2, count):
            sampler = block_stream(m, seed=m)
            blocks = [next(sampler) for _ in range(drawn)]
            blocks += islice(iter(sampler), count - drawn)
            assert blocks == reference_sampler_stream(m, m, count)

    @pytest.mark.parametrize("m", [1, 2, 10, 32, 64, 65, 130])
    def test_stream_is_the_affine_formula(self, m):
        count = min(1 << m, 1000)
        for seed in (0, 5, 2 ** 64 - 1):
            sampler = block_stream(m, seed)
            assert [next(sampler) for _ in range(count)] == \
                reference_sampler_stream(m, seed, count)

    def test_huge_block_length_builds_no_power(self):
        tracemalloc.start()
        try:
            started = time.perf_counter()
            sampler = block_stream(4_000_000_000, seed=9)
            blocks = [next(sampler) for _ in range(1000)]
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(blocks)) == 1000
        assert elapsed < 0.5
        assert peak < 1 << 20

    def test_seed_changes_stream(self):
        a = [next(block_stream(12, seed=1)) for _ in range(1)]
        b = [next(block_stream(12, seed=2)) for _ in range(1)]
        assert a != b or derive_seed(1, "x") != derive_seed(2, "x")


class TestBirthdaySearch:
    def test_returns_valid_collision(self):
        o = CompressionOracle(8, 16, seed=10)
        blocks, queries = birthday_search(o, 0, 2)
        assert len(blocks) == 2 and blocks[0] != blocks[1]
        probe = o.clone()
        assert probe.compress(0, blocks[0]) == probe.compress(0, blocks[1])
        assert queries == o.query_count

    def test_three_collision(self):
        o = CompressionOracle(8, 16, seed=11)
        blocks, queries = birthday_search(o, 0, 3)
        assert len(set(blocks)) == 3
        probe = o.clone()
        assert len({probe.compress(0, b) for b in blocks}) == 1

    def test_rejects_k_below_two(self):
        o = CompressionOracle(8, 16, seed=11)
        with pytest.raises(ValueError):
            birthday_search(o, 0, 1)

    @pytest.mark.parametrize("h", [-1, 256])
    def test_rejects_a_state_outside_the_range(self, h):
        o = CompressionOracle(8, 16, seed=11)
        with pytest.raises(ValueError, match=f"hash value {h} outside 8-bit range"):
            birthday_search(o, h, 2)
        assert (o.query_count, o.raw_calls) == (0, 0)

    def test_median_cost_at_n8(self):
        costs = []
        for s in range(200):
            o = CompressionOracle(8, 16, seed=2000 + s)
            costs.append(birthday_search(o, 0, 2)[1])
        assert 12 <= statistics.median(costs) <= 40


class TestOracleWidthLimit:
    def test_rejects_hash_length_above_64(self):
        # the mixer keys on the low 64 bits of the state only
        for n in (65, 80):
            with pytest.raises(ValueError):
                CompressionOracle(n, n + 16, seed=1)

    def test_accepts_hash_length_64(self):
        o = CompressionOracle(64, 80, seed=1)
        assert 0 <= o.compress((1 << 64) - 1, 7) < 1 << 64


class TestSeeds:
    """A seed is any integer, 0 and below included; anything else is
    refused with a TypeError naming it, never truncated."""

    MAKERS = [lambda seed: CompressionOracle(8, 16, seed), lambda seed: block_stream(8, seed)]

    @pytest.mark.parametrize("make", MAKERS, ids=["CompressionOracle", "block_stream"])
    @pytest.mark.parametrize("seed", [2.7, 2.0, "2", None])
    def test_non_integer_seed_is_refused(self, make, seed):
        with pytest.raises(TypeError, match="^seed must be an integer, not "):
            make(seed)

    @pytest.mark.parametrize("seed", [0, -5, True])
    def test_every_integer_is_a_seed_and_reproduces_its_stream(self, seed):
        oracle = CompressionOracle(8, 16, seed)
        assert oracle.seed == seed and type(oracle.seed) is int
        queries = [(0, 0), (7, 300), (255, 65535)]
        assert [oracle.compress(h, b) for h, b in queries] == [
            reference_compress(seed, 8, h, b) for h, b in queries]
        sampler = block_stream(8, seed)
        assert list(islice(sampler, 40)) == reference_sampler_stream(8, seed, 40)
