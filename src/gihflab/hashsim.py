"""Simulated compression oracle, iterated hash evaluators and the one
collision search, table_collision, that every attack level and the birthday
baseline run.

A table search over fresh blocks draws them through a Lookahead, which
warms whole batches: before each warm it tops its buffer up to _BATCH
blocks of the stream, so a search's leftover blocks are warmed together
with fresh ones, in stream order, at the next search's chaining state.  A
warm computes f(h, b) for its one batch at once, running the splitmix
round on every 64-bit lane of one packed integer, and compress then reads
the value on a miss instead of mixing.  The search still makes one
compress call per draw, in draw order, so every count and every value is
the same as without the lookahead.

The oracle is a seeded keyed mixer over (state, block) pairs: deterministic,
approximately uniform, and emphatically not a cryptographic hash.  Its
query counter tracks *distinct* (state, block) pairs, matching the cost
model in which repeated evaluations of known pairs are free; the raw call
count, distinct queries plus memo repeats, is kept alongside for reporting.
It is held to the law of a uniform random function where the attacks
look: the draws T to a first repeated value of compress(h, .) over fresh
blocks follow P(T > t) = prod_{i<t} (1 - i/2^n).

A single oracle instance is a mutable resource and must not be shared
between concurrent attacks; independent trials use independent oracles with
distinct seeds.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .words import Word, require_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# The bulk path warms whole batches: a Lookahead tops its buffer up to
# _BATCH blocks before each warm, and a warm packs its batch, block i in
# bits 64i..64i + 63 (little-endian lanes), into one integer of _BATCH
# lanes, zero-filling the lanes a short batch leaves empty.  A batch is
# short only at a stream's end, or when a wide-block batch drops its blocks
# of 2^64 and above.
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


def _packed_rounds(acc: int, lanes: Sequence[int], lane_out: int) -> dict:
    """The table b -> mix64(acc ^ b) & out over the blocks 0 <= b < 2^64 of
    one batch `lanes`, at most _BATCH blocks, computed over one packed
    integer of _BATCH lanes (_LANES) whose lanes past the batch are zero;
    lane_out holds `out` in every lane.  Any other block is dropped from the
    table.  A lane's shift takes the next lane's low bits, which the _LOW
    masks drop; its product by a 64-bit constant spills into the next lane,
    so the even and the odd lanes are multiplied apart and each product
    keeps only its own lanes."""
    try:
        packed = _LANES.pack(*lanes, *_ZEROS[len(lanes):])
    except struct.error:  # a block below 0 or of 2^64 or more
        lanes = [b for b in lanes if 0 <= b <= _MASK64]
        packed = _LANES.pack(*lanes, *_ZEROS[len(lanes):])
    z = int.from_bytes(packed, "little") ^ acc * _LANE_ONES
    z ^= (z >> 30) & _LOW34
    even = z & _EVEN
    z = (even * 0xBF58476D1CE4E5B9 & _EVEN) | ((z ^ even) * 0xBF58476D1CE4E5B9 & _ODD)
    z ^= (z >> 27) & _LOW37
    even = z & _EVEN
    z = (even * 0x94D049BB133111EB & _EVEN) | ((z ^ even) * 0x94D049BB133111EB & _ODD)
    z = (z ^ (z >> 31) & _LOW33) & lane_out
    return dict(zip(lanes, _LANES.unpack(z.to_bytes(_LANES.size, "little"))))


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
    64-bit chunk of b.  The memo maps the one int b << n | h to the output,
    which is injective once h is known to lie below 2^n, and builds no 2^m.

    warm(h, blocks) is the bulk path: it takes one batch of at most _BATCH
    blocks, a whole one from a Lookahead unless its stream ends, computes
    f(h, b) for every block b < 2^64 of it with one _packed_rounds call,
    and keeps the values in a side table for h, replacing the last warm's.
    A compress miss at that state reads its value there instead of mixing;
    it still passes the range checks and the memo probe and stores the
    value in the memo, so a warm counts nothing and changes no value.  A
    block of 2^64 or more, or a miss at any other state, takes the scalar
    round.

    raw_calls counts every call that passes the range checks: each one
    either adds a memo entry or repeats one, so it is the distinct queries
    plus the memo hits, and only the hits are counted as they happen.
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
        self._hits = 0
        self._key = mix64(self.seed ^ _GOLDEN)
        self._bound = 1 << n
        self._out_mask = self._bound - 1
        # the bulk path's side table: block -> f(h, block) at the state of
        # the last warm
        self._warm_h = None
        self._warm: dict = {}
        self._lane_out = self._out_mask * _LANE_ONES

    @property
    def query_count(self) -> int:
        return len(self._memo)

    @property
    def raw_calls(self) -> int:
        return len(self._memo) + self._hits

    def clone(self) -> "CompressionOracle":
        """Fresh oracle computing the same function with its own counter."""
        return CompressionOracle(self.n, self.m, self.seed)

    def compress(self, h: int, b: int) -> int:
        if not 0 <= h < self._bound:
            raise ValueError(f"hash value {h} outside {self.n}-bit range")
        if not (b >= 0 and b.bit_length() <= self.m):  # builds no 2^m
            raise ValueError(f"block {b} outside {self.m}-bit range")
        key = b << self.n | h  # one int per pair: h < 2^n after the check
        cached = self._memo.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        if h == self._warm_h:
            cached = self._warm.get(b)
            if cached is not None:
                self._memo[key] = cached
                return cached
        # mix64, inlined: its input mask is a no-op, as key ^ h and
        # acc ^ chunk are below 2^64
        z = self._key ^ h
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
        while b > _MASK64:
            z = acc ^ (b & _MASK64)
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            acc = z ^ (z >> 31)
            b >>= 64
        z = acc ^ b
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        cached = (z ^ (z >> 31)) & self._out_mask
        self._memo[key] = cached
        return cached

    def warm(self, h: int, blocks: Sequence[int]) -> None:
        """Compute f(h, b) at once for every int block 0 <= b < 2^64 of one
        batch, `blocks`, of at most _BATCH blocks, for compress(h, b) to
        read on a miss; other blocks are left to the scalar round.  Replaces
        the last warm's values and counts nothing.  Refuses an h outside
        the n-bit range as compress does, and a longer batch."""
        if not 0 <= h < self._bound:
            raise ValueError(f"hash value {h} outside {self.n}-bit range")
        if len(blocks) > _BATCH:
            raise ValueError(f"a warm takes at most {_BATCH} blocks, not {len(blocks)}")
        self._warm = _packed_rounds(mix64(self._key ^ h), blocks, self._lane_out)
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
    one iterator, so next() draws followed by a loop over it continue where
    the draws stopped.  The walk steps by addition and builds 2^m once, at
    its first wrap past it, so a huge m costs no more than its blocks.
    """
    require_int(m, "block length m")
    seed = _checked_seed(seed)
    mult = _low_bits(2 * mix64(seed) + 1, m)
    if mult == 1 and m > 1:
        mult = 3
    offset = _low_bits(mix64(seed ^ 0xA5A5A5A5A5A5A5A5), m)
    # chain retries an iterator that raised, so every draw past 2^m raises,
    # not only the first
    return chain(_affine_walk(m, mult, offset), iter(partial(_exhausted, m), None))


def _affine_walk(m: int, mult: int, offset: int) -> Iterator[int]:
    """(mult * i + offset) mod 2^m for i = 0, 1, ..., 2^m - 1: mult is odd,
    so the walk is back at offset after exactly 2^m steps.  Until the first
    wrap the walk only rises, so it cannot be back at offset."""
    value = offset
    while not value >> m:  # both terms of each sum are below 2^m
        yield value
        value += mult
    size = 1 << m  # built once, at the first wrap, which a huge m never reaches
    value -= size
    while value != offset:
        yield value
        value += mult
        if value >= size:
            value -= size


def _exhausted(m: int):
    raise ValueError(f"block space of {m}-bit blocks exhausted")


class Lookahead:
    """One block stream that successive table searches read in turn, each
    at its own chaining state.

    at(h) yields the stream's blocks in order, warming whole batches: before
    each warm at h (CompressionOracle.warm) it tops its buffer up to _BATCH
    blocks, then yields them.  The blocks drawn but not yet yielded stay in
    the buffer, so the next search, at its own state, warms them there with
    fresh blocks behind them and continues at the same point in the stream;
    only at(h) draws ahead, so while the buffer is empty, reading `source`
    directly reads the stream in order too.  A stream that raises
    ValueError while the buffer is topped up, as block_stream does past its
    last block, raises it again at the next draw, so the error reaches the
    search only once the blocks drawn before it are yielded.
    """

    def __init__(self, oracle: CompressionOracle, source: Iterable[int]):
        self.oracle = oracle
        self.source = iter(source)
        self.buffer: deque = deque()

    def at(self, h: int) -> Iterator[int]:
        buffer = self.buffer
        while True:
            try:
                buffer.extend(islice(self.source, _BATCH - len(buffer)))
            except ValueError:
                if not buffer:
                    raise
            if not buffer:
                return
            self.oracle.warm(h, buffer)
            while buffer:
                yield buffer.popleft()


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
    sampler = Lookahead(oracle, block_stream(oracle.m, derive_seed(oracle.seed, "birthday")))
    start = oracle.query_count
    blocks, _ = table_collision(partial(oracle.compress, h), sampler.at(h), k)
    return blocks, oracle.query_count - start
