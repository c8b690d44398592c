"""Simulated compression oracle, iterated hash evaluators and the one
collision search, table_collision, that every attack level and the birthday
baseline run.

A block stream is an affine walk, block i being (offset + mult * i) mod 2^m,
so any run of _BATCH consecutive blocks is one segment, computed at once:
for m <= 63 as one packed integer of _BATCH 64-bit lanes.  A table search
over fresh blocks reads them through a Lookahead, which keeps its place as
an index into the stream: each warm computes the segment that starts at
the first block no search has read, and the oracle runs the splitmix round
on every lane of that packed integer at the search's chaining state.
compress then reads the value on a miss instead of mixing.  The search
still makes one compress call per draw, in draw order, so every count and
every value is the same as without the lookahead.

The oracle is a seeded keyed mixer over (state, block) pairs: deterministic,
approximately uniform, and emphatically not a cryptographic hash.  Its
query counter tracks *distinct* (state, block) pairs, matching the cost
model in which repeated evaluations of known pairs are free; the raw call
count, distinct queries plus memo repeats, is kept alongside for reporting.
The memo is keyed by chaining state, each state with its own table of
blocks, so a draw keeps the block object its stream segment already holds
and allocates no key.
It is held to the law of a uniform random function where the attacks
look: the draws T to a first repeated value of compress(h, .) over fresh
blocks follow P(T > t) = prod_{i<t} (1 - i/2^n).

A single oracle instance is a mutable resource and must not be shared
between concurrent attacks; independent trials use independent oracles with
distinct seeds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, takewhile
from operator import itemgetter, length_hint
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .words import Word, require_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# The bulk path warms whole batches: a Lookahead warms the _BATCH-block
# segment of its stream that starts at the first unread block, and a warm
# computes its batch as one integer of _BATCH lanes, block i in bits
# 64i..64i + 63 (little-endian lanes).  A segment of a stream with m <= 63
# comes packed so; any other batch is packed by _LANES, which zero-fills the
# lanes a short batch leaves empty.  A batch is short only at a stream's
# end, or when a wide-block batch drops its blocks of 2^64 and above.
_BATCH = 256
_LANE_ONES = sum(1 << 64 * i for i in range(_BATCH))  # 1 in every lane
_EVEN = _MASK64 * sum(1 << 128 * i for i in range((_BATCH + 1) // 2))  # lanes 0, 2, 4, ...
_ODD = _MASK64 * _LANE_ONES ^ _EVEN
# what a right shift by 30, 27 or 31 leaves of each lane's own bits
_LOW34 = ((1 << 34) - 1) * _LANE_ONES
_LOW37 = ((1 << 37) - 1) * _LANE_ONES
_LOW33 = ((1 << 33) - 1) * _LANE_ONES
_LANES = struct.Struct(f"<{_BATCH}Q")
_ZEROS = (0,) * _BATCH


def mix64(z: int) -> int:
    """Finalizing 64-bit avalanche mixer (splitmix-style)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _pack(blocks: Sequence[int]) -> tuple:
    """(kept, packed): the blocks 0 <= b < 2^64 of one batch of at most
    _BATCH blocks, in order, and those blocks packed one per lane as
    _packed_rounds takes them.  A block that is not an int is refused with
    a TypeError naming it."""
    try:
        return blocks, int.from_bytes(_LANES.pack(*blocks, *_ZEROS[len(blocks):]), "little")
    except struct.error:  # a block below 0, of 2^64 or more, or not an int
        for b in blocks:
            if not isinstance(b, int):
                raise TypeError(f"block {b!r} must be an integer, not {type(b).__name__}") from None
        kept = [b for b in blocks if 0 <= b <= _MASK64]
        return kept, int.from_bytes(_LANES.pack(*kept, *_ZEROS[len(kept):]), "little")


def _packed_rounds(acc: int, packed: int, lane_out: int) -> tuple:
    """mix64(acc ^ b) & out for the block b in each of the _BATCH 64-bit
    lanes of `packed`, as a tuple in lane order; lane_out holds `out` in
    every lane.  A lane's shift takes the next lane's low bits, which the
    _LOW masks drop; its product by a 64-bit constant spills into the next
    lane, so the even and the odd lanes are multiplied apart and each
    product keeps only its own lanes."""
    z = packed ^ acc * _LANE_ONES
    z ^= (z >> 30) & _LOW34
    even = z & _EVEN
    z = (even * 0xBF58476D1CE4E5B9 & _EVEN) | ((z ^ even) * 0xBF58476D1CE4E5B9 & _ODD)
    z ^= (z >> 27) & _LOW37
    even = z & _EVEN
    z = (even * 0x94D049BB133111EB & _EVEN) | ((z ^ even) * 0x94D049BB133111EB & _ODD)
    z = (z ^ (z >> 31) & _LOW33) & lane_out
    return _LANES.unpack(z.to_bytes(_LANES.size, "little"))


def _checked_seed(seed) -> int:
    """The seed as a plain int.  Every integer, 0 and below included, is a
    seed; anything else is refused with a TypeError naming it, never
    truncated."""
    if not isinstance(seed, int):
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}")
    return int(seed)  # a bool seed is kept, and written to files, as 0 or 1


def derive_seed(seed: int, tag: str) -> int:
    """Stable sub-seed derivation for independent random streams."""
    acc = mix64(seed ^ _GOLDEN)
    for byte in tag.encode():
        acc = mix64(acc ^ byte)
    return acc


class CompressionOracle:
    """Black-box f: {0,1}^n x {0,1}^m -> {0,1}^n with memoized queries.

    f(h, b) = mix64(... mix64(mix64(key ^ h) ^ b_0) ^ b_1 ...) mod 2^n over
    the 64-bit chunks b_0, b_1, ... of b, low chunk first, with the key
    derived from the seed.  Same (seed, h, b) always yields the same output;
    query_count equals the number of distinct (h, b) pairs ever evaluated.
    The mixer keys on the low 64 bits of h, so n is capped at 64.

    A compress miss takes three steps, in order: the memo probe, the value
    warmed for (h, b) if h is the state of the last warm, and otherwise the
    scalar chain, inlined: the state round on key ^ h, then one round per
    64-bit chunk of b.  The memo maps each state h to its own table,
    {b: f(h, b)}, which h's first query opens holding that query, so no
    table is ever empty; a miss stores the caller's own b object in h's
    table, so the scalar chain walks b's chunks in a name of its own.  A
    state or a block that is not an int is refused with a TypeError naming
    it, where the range check raises it, so 3.0 is never taken for the
    state 3; a bool is the int it equals.

    warm(h, blocks, packed) is the bulk path: it takes one batch of at most
    _BATCH blocks, a whole segment of its stream from a Lookahead unless the
    stream ends, computes f(h, b) for every block b < 2^64 of it with one
    _packed_rounds call, and keeps the values in a side table for h,
    replacing the last warm's.
    A compress miss at that state reads its value there instead of mixing;
    it still passes the range checks and the memo probe and stores the
    value in the memo, so a warm counts nothing and changes no value.  A
    block of 2^64 or more, or a miss at any other state, takes the scalar
    round.

    query_count is the number of states in the memo plus _more, the
    queries at a state beyond its first, and raw_calls adds _hits, the
    memo hits: each call that passes the range checks either opens a
    table, adds to one or repeats an entry, so both are read in constant
    time, and a miss that opens a table counts nothing as it happens.
    """

    def __init__(self, n: int, m: int, seed: int):
        require_int(n, "hash length n")
        require_int(m, "block length m")
        if n > 64:
            raise ValueError("hash length n must lie in 1..64")
        if m <= n:
            raise ValueError("block length m must exceed hash length n")
        self.n = n
        self.m = m
        self.seed = _checked_seed(seed)
        self._memo: dict = {}
        self._more = 0
        self._hits = 0
        self._key = mix64(self.seed ^ _GOLDEN)
        self._out_mask = (1 << n) - 1
        # the bulk path's side table: block -> f(h, block) at the state of
        # the last warm
        self._warm_h = None
        self._warm: dict = {}
        self._lane_out = self._out_mask * _LANE_ONES

    @property
    def query_count(self) -> int:
        return len(self._memo) + self._more

    @property
    def raw_calls(self) -> int:
        return len(self._memo) + self._more + self._hits

    def clone(self) -> "CompressionOracle":
        """Fresh oracle computing the same function with its own counter."""
        return CompressionOracle(self.n, self.m, self.seed)

    def compress(self, h: int, b: int) -> int:
        try:
            if h >> self.n:  # h below 0 or of 2^n or more
                raise ValueError(f"hash value {h} outside {self.n}-bit range")
        except TypeError:  # not an int: costs nothing until raised
            raise TypeError(f"hash value {h!r} must be an integer, not {type(h).__name__}") from None
        try:
            if not (b >= 0 and b.bit_length() <= self.m):  # builds no 2^m
                raise ValueError(f"block {b} outside {self.m}-bit range")
        except (AttributeError, TypeError):  # not an int: costs nothing until raised
            raise TypeError(f"block {b!r} must be an integer, not {type(b).__name__}") from None
        table = self._memo.get(h)
        if table is not None:
            cached = table.get(b)
            if cached is not None:
                self._hits += 1
                return cached
            self._more += 1
        if h != self._warm_h or (cached := self._warm.get(b)) is None:
            # mix64, inlined: its input mask is a no-op, as key ^ h and
            # acc ^ chunk are below 2^64
            z = self._key ^ h
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            acc = z ^ (z >> 31)
            chunks = b  # b itself is stored below
            while chunks > _MASK64:
                z = acc ^ (chunks & _MASK64)
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                acc = z ^ (z >> 31)
                chunks >>= 64
            z = acc ^ chunks
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            cached = (z ^ (z >> 31)) & self._out_mask
        if table is None:
            self._memo[h] = {b: cached}
        else:
            table[b] = cached
        return cached

    def warm(self, h: int, blocks: Sequence[int], packed: Optional[int] = None) -> None:
        """Compute f(h, b) at once for every int block 0 <= b < 2^64 of one
        batch, `blocks`, of at most _BATCH blocks, for compress(h, b) to
        read on a miss; other blocks are left to the scalar round.  `packed`
        is the batch already packed one block per lane, as a Lookahead hands
        over a segment of a stream with m <= 63; without it the blocks are
        packed here.  Replaces the last warm's values and counts nothing.
        Refuses an h outside the n-bit range as compress does, a longer
        batch, and a state or a block that is not an int."""
        try:
            if h >> self.n:
                raise ValueError(f"hash value {h} outside {self.n}-bit range")
        except TypeError:
            raise TypeError(f"hash value {h!r} must be an integer, not {type(h).__name__}") from None
        if len(blocks) > _BATCH:
            raise ValueError(f"a warm takes at most {_BATCH} blocks, not {len(blocks)}")
        if packed is None:
            blocks, packed = _pack(blocks)
        self._warm = dict(zip(blocks, _packed_rounds(mix64(self._key ^ h), packed, self._lane_out)))
        self._warm_h = h


def f_plus(oracle: CompressionOracle, h: int, blocks: Sequence[int]) -> int:
    """Left fold of the compression function over a nonempty block sequence."""
    if not blocks:
        raise ValueError("block sequence must be nonempty")
    compress = oracle.compress
    state = h
    for b in blocks:
        state = compress(state, b)
    return state


def f_alpha(oracle: CompressionOracle, h: int, blocks: Sequence[int],
            schedule_word: Word) -> int:
    """Iterated compression: feed blocks in the order and multiplicity given
    by the schedule word (1-based indices into `blocks`)."""
    if not schedule_word:
        raise ValueError("schedule word must be nonempty")
    count = len(blocks)
    if not (1 <= min(schedule_word) and max(schedule_word) <= count):
        sym = next(sym for sym in schedule_word if not 1 <= sym <= count)
        raise ValueError(f"schedule symbol {sym} out of range 1..{count}")
    # a leading placeholder makes symbol i index block i; itemgetter of two
    # or more indices returns a tuple, whose placeholder is then dropped
    return f_plus(oracle, h, itemgetter(0, *schedule_word)((None, *blocks))[1:])


@dataclass(frozen=True)
class Schedule:
    """Family of schedule words, one per message block count.

    generator(l) must return a word over {1..l} using every symbol.  A
    schedule holds nothing but its words: how often a word repeats a symbol
    is read from the word itself, by whoever needs it.
    """

    name: str
    generator: Callable[[int], Word] = field(repr=False)


def identity_schedule() -> Schedule:
    """Traditional iterated hashing: block i is consumed once, in order."""
    return Schedule("identity", lambda l: tuple(range(1, l + 1)))


def mirror_schedule() -> Schedule:
    """2-bounded palindromic schedule 1 2 .. l l .. 2 1: Liskov's Zipper
    schedule (Constructing an ideal hash function from weak ideal
    compression functions, SAC 2006)."""
    return Schedule("mirror", lambda l: tuple(range(1, l + 1)) + tuple(range(l, 0, -1)))


def schedule_from_words(words: Sequence[Word], name: str = "file") -> Schedule:
    """Schedule backed by an explicit word list; words[l-1] serves length l."""
    words = [tuple(w) for w in words]

    def generator(l: int) -> Word:
        if not 1 <= l <= len(words) or not words[l - 1]:
            raise ValueError(f"schedule provides no word for message length {l}")
        return words[l - 1]

    return Schedule(name, generator)


def validate_schedule_word(sched: Schedule, l: int) -> Word:
    """Materialize one schedule word and check that it covers 1..l."""
    w = tuple(sched.generator(l))
    if set(w) != set(range(1, l + 1)):
        raise ValueError(f"schedule word for l={l} does not cover 1..{l}")
    return w


def gihf_eval(oracle: CompressionOracle, sched: Schedule, h0: int,
              message: Sequence[int]) -> int:
    """Hash a message under the generalized construction: pick the schedule
    word for its block count and run the iterated compression."""
    if not message:
        raise ValueError("message must contain at least one block")
    return f_alpha(oracle, h0, message, tuple(sched.generator(len(message))))


def _low_bits(x: int, m: int) -> int:
    """x mod 2^m for x >= 0, building no 2^m unless x already has more than
    m bits."""
    high = x >> m
    return x - (high << m) if high else x


def block_stream(m: int, seed: int) -> Iterator[int]:
    """Deterministic stream of distinct message blocks.

    Walks a seeded affine permutation of {0..2^m - 1} from the start, so the
    first 2^m draws are pairwise distinct and any (seed, m) pair reproduces
    the same stream; every further draw raises ValueError.  The stream is
    one iterator over its segments (_segments), so next() draws followed by
    a loop over it continue where the draws stopped.  It builds 2^m only
    within one segment of its end, so a huge m costs no more than its
    blocks.
    """
    segment = _segments(m, seed)
    blocks = (segment(start)[1] for start in count(0, _BATCH))
    # chain retries an iterator that raised, so every draw past 2^m raises,
    # not only the first
    return chain(chain.from_iterable(takewhile(len, blocks)), iter(partial(_exhausted, m), None))


def _segments(m: int, seed: int) -> Callable[[int], tuple]:
    """segment(start) for the stream block_stream(m, seed), its only
    definition: (packed, blocks), the blocks start, start + 1, ... of the
    stream, _BATCH of them or as many as are left before index 2^m, and for
    m <= 63 the walk's _BATCH values from index start on, packed one per
    lane as _packed_rounds takes them (None for a wider m); a warm enters
    only `blocks` in its table, so the lanes past a short segment's end,
    which wrap past 2^m, are computed and dropped.

    Block i is (offset + mult * i) mod 2^m with mult odd, so the first 2^m
    blocks are distinct.  For m <= 63 the segment at i is the one packed
    expression (base * _LANE_ONES + ramp) & lane_mask, where base is block
    i and lane j of ramp holds (mult * j) mod 2^m: a lane's sum is below
    2^(m + 1) <= 2^64, so no lane carries into the next.  A wider m takes
    the formula block by block through _low_bits, so it never builds 2^m.
    """
    require_int(m, "block length m")
    seed = _checked_seed(seed)
    mult = _low_bits(2 * mix64(seed) + 1, m)
    if mult == 1 and m > 1:
        mult = 3
    offset = _low_bits(mix64(seed ^ 0xA5A5A5A5A5A5A5A5), m)

    def length(start: int) -> int:  # builds 2^m only within one segment of it
        return max(0, min(_BATCH, (1 << m) - start)) if (start + _BATCH) >> m else _BATCH

    if m > 63:
        def segment(start: int) -> tuple:
            return None, [_low_bits(offset + mult * i, m) for i in range(start, start + length(start))]
        return segment

    low = (1 << m) - 1
    ramp = int.from_bytes(_LANES.pack(*[mult * j & low for j in range(_BATCH)]), "little")
    lane_mask = low * _LANE_ONES

    def segment(start: int) -> tuple:
        packed = ((offset + mult * start & low) * _LANE_ONES + ramp) & lane_mask
        blocks = _LANES.unpack(packed.to_bytes(_LANES.size, "little"))
        size = length(start)
        return packed, blocks if size == _BATCH else blocks[:size]
    return segment


def _exhausted(m: int):
    raise ValueError(f"block space of {m}-bit blocks exhausted")


class Lookahead:
    """One block stream, block_stream(oracle.m, seed), that successive
    table searches read in turn, each at its own chaining state.

    The Lookahead keeps its place as `index`, the first block of the stream
    no search has read, starting at `start`.  at(h) returns one iterator
    over the stream from there: each warm computes the _BATCH-block
    segment that starts at the index (_segments), hands it, packed, to
    CompressionOracle.warm at h, and the search reads its blocks through
    C iterators, so the index advances by exactly what the search drew.  A
    search that stops partway into a segment leaves the rest to the next
    one, which warms a fresh segment from that point at its own state.  A
    segment is short only at the stream's end; past it at(h) raises
    ValueError, as block_stream does, at the draw after the last block and
    at every later search.
    """

    def __init__(self, oracle: CompressionOracle, seed: int, start: int = 0):
        self.oracle = oracle
        self.seed = seed
        self._segment = _segments(oracle.m, seed)
        self._end = start  # the index past the last segment handed out
        self._unread = iter(())  # that segment's blocks no search has drawn

    @property
    def index(self) -> int:
        # a tuple or list iterator's length hint is exactly what it has left
        return self._end - length_hint(self._unread)

    def at(self, h: int) -> Iterator[int]:
        return chain.from_iterable(self._warmed(h))

    def _warmed(self, h: int) -> Iterator[Iterator[int]]:
        while True:
            start = self.index
            packed, blocks = self._segment(start)
            if not blocks:
                _exhausted(self.oracle.m)
            self.oracle.warm(h, blocks, packed)
            self._end = start + len(blocks)
            self._unread = iter(blocks)
            yield self._unread


def table_collision(evaluate: Callable, candidates: Iterable, k: int = 2):
    """First k candidates, in draw order, with one common value under
    `evaluate`: (candidates, value), or None if `candidates` runs out.
    Memory-unrestricted: the first candidate of every seen value is kept,
    and a value that repeats gets a bucket of its candidates until one
    bucket holds k.  Only the values are hashed, never the candidates."""
    require_int(k, "collision size k")
    if k < 2:
        raise ValueError("collision size k must be >= 2")
    first: dict = {}
    buckets: dict = {}
    for candidate in candidates:
        value = evaluate(candidate)
        if value not in first:
            first[value] = candidate
            continue
        bucket = buckets.setdefault(value, [first[value]])
        bucket.append(candidate)
        if len(bucket) == k:
            return tuple(bucket), value
    return None


def birthday_search(oracle: CompressionOracle, h: int, k: int) -> tuple[tuple[int, ...], int]:
    """Find k distinct blocks with equal compress(h, .) by table lookup,
    drawn from the oracle seed's birthday sampler stream.

    Returns the colliding blocks and the number of distinct queries spent;
    raises ValueError if k < 2 or if the 2^m blocks run out first.
    """
    sampler = Lookahead(oracle, derive_seed(oracle.seed, "birthday"))
    start = oracle.query_count
    blocks, _ = table_collision(partial(oracle.compress, h), sampler.at(h), k)
    return blocks, oracle.query_count - start
