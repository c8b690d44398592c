"""Multicollision attacks on the simulated hash constructions.

One engine runs every attack.  An attack certificate (see nesting) cuts the
schedule word into parts that condense to permutations of a subalphabet B,
and one level walker hashes each part, running the level's collision search
for each block of B-positions.  Level 1 finds one cross-stream pair
collision per B-position among fresh sampler blocks; each later level
collapses the >= 2^n combinations of the groups a block inherits by table
search.  Iteration order is fixed, so an oracle seed reproduces the attack
byte for byte.  joux_attack, Joux's chained pair collisions, is the q=1
case: the identity word 1..r in one part, with no filler blocks.

An attack owns its oracle exclusively while it runs.  Verification checks
the schedule word's coverage of 1..l and its bound, then hashes every
expanded message along that one word on a counter-isolated clone, so audit
queries never pollute the attack cost.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterator, Optional, Sequence

from .hashsim import (
    BlockSampler,
    CompressionOracle,
    Schedule,
    derive_seed,
    identity_schedule,
    table_collision,
    validate_schedule_word,
)
from .nesting import (
    AttackCertificate,
    ConstructionError,
    attack_threshold,
    find_attack_structure,
)
from .words import condense, equal_blocks, split_word

DEFAULT_A_TILDE = 2.5
DEFAULT_EXPANSION_CAP = 1 << 16


@dataclass(frozen=True)
class CollisionGroup:
    """Interchangeable block assignments for one set of message positions."""

    positions: tuple[int, ...]
    choices: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MulticollisionSet:
    """Product-form multicollision: independent choice groups over disjoint
    positions plus fixed blocks everywhere else.

    The expansion (one message per combination of group choices) has
    2^r members, all of block length `length`.
    """

    length: int
    groups: tuple[CollisionGroup, ...]
    base_blocks: dict
    r: int

    def validate(self) -> None:
        seen: set = set()
        expansion = 1
        for group in self.groups:
            if len(group.positions) != len(set(group.positions)):
                raise ValueError("duplicate position inside a group")
            if seen & set(group.positions):
                raise ValueError("groups must cover disjoint positions")
            seen |= set(group.positions)
            if len(group.choices) < 2:
                raise ValueError("each group needs at least two choices")
            if any(len(c) != len(group.positions) for c in group.choices):
                raise ValueError("choice width must match the group positions")
            expansion *= len(group.choices)
        # cheap size checks come first, so a hostile length or r never
        # builds a huge set or integer
        covered = seen | set(self.base_blocks)
        if len(seen) + len(self.base_blocks) != self.length or covered != set(range(1, self.length + 1)):
            raise ValueError("groups plus base blocks must cover every position exactly once")
        if self.r < 1 or expansion.bit_length() != self.r + 1 or expansion != 2 ** self.r:
            raise ValueError(f"expansion size {expansion} is not 2^{self.r} with r >= 1")

    @property
    def expansion_size(self) -> int:
        size = 1
        for group in self.groups:
            size *= len(group.choices)
        return size

    def message(self, selection: Sequence[int]) -> tuple[int, ...]:
        blocks = [0] * self.length
        for pos, blk in self.base_blocks.items():
            blocks[pos - 1] = blk
        for group, pick in zip(self.groups, selection):
            for pos, blk in zip(group.positions, group.choices[pick]):
                blocks[pos - 1] = blk
        return tuple(blocks)

    def messages(self) -> Iterator[tuple[int, ...]]:
        for selection in product(*(range(len(g.choices)) for g in self.groups)):
            yield self.message(selection)

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "r": self.r,
            "groups": [
                {"positions": list(g.positions), "choices": [list(c) for c in g.choices]}
                for g in self.groups
            ],
            "base_blocks": [[pos, blk] for pos, blk in sorted(self.base_blocks.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MulticollisionSet":
        """Inverse of to_dict; raises KeyError, TypeError or ValueError on
        malformed data, including any non-integer field."""
        length, r = _integers((data["length"], data["r"]))
        groups = tuple(
            CollisionGroup(_integers(g["positions"]), tuple(_integers(c) for c in g["choices"]))
            for g in data["groups"]
        )
        base_blocks = dict(map(_integers, data["base_blocks"]))
        return cls(length=length, groups=groups, base_blocks=base_blocks, r=r)


def _integers(values) -> tuple[int, ...]:
    """The values as a tuple, rejecting anything but integers (bools too)."""
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise ValueError("multicollision fields must be integers")
    return values


@dataclass(frozen=True)
class AttackReport:
    """Outcome and exact cost accounting of one attack run.

    attack_queries counts distinct compression queries spent by the attack
    itself; raw_calls additionally counts repeated evaluations of known
    pairs.  stage_queries gives the per-stage split (per pair collision for
    the first level, per collapsed group afterwards), which also records the
    per-position reading of the first-level cost estimate next to the
    per-symbol one implied by walking the whole part.
    """

    r: int
    n: int
    m: int
    q: int
    l: int
    attack_queries: int
    verify_ok: bool
    bound: float
    seed: int
    a_tilde: float = DEFAULT_A_TILDE
    h0: int = 0
    p: int = 1
    schedule: str = "identity"
    raw_calls: int = 0
    stage_queries: tuple = ()
    level_queries: tuple = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "stage_queries": list(self.stage_queries),
                "level_queries": list(self.level_queries)}


@dataclass(frozen=True)
class VerificationResult:
    """Truthy iff verification passed; complete=False flags sampling mode."""

    ok: bool
    complete: bool
    checked: int
    digest: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def complexity_bound(n: int, q: int, r: int, a_tilde: float = DEFAULT_A_TILDE):
    """Query bound a~ * q * N^ * 2^(n/2) for building a 2^r-collision on a
    q-bounded construction of hash length n.

    N^ is the exact forcing boundary for q = 2 (with m = n^((q-1)^2) *
    r^(2q-3)), the proven upper bound m^(2^(q-1)) for q >= 3, and by
    convention r for q = 1 (one pair search per stage).  Returns an int
    whenever the value is integral.
    """
    if n < 1 or q < 1 or r < 1:
        raise ValueError("n, q and r must be >= 1")
    if q == 1:
        n_hat = r
    else:
        m = n ** ((q - 1) ** 2) * r ** (2 * q - 3)
        n_hat = m * m - m + 1 if q == 2 else m ** (2 ** (q - 1))
    value = Fraction(a_tilde) * q * n_hat * (2 ** (n // 2))
    if n % 2:
        return float(value) * math.sqrt(2)
    return int(value) if value.denominator == 1 else float(value)


def _cross_collision(evaluate: Callable, candidates: Iterator):
    """Search two distinct candidates with equal value under `evaluate`.

    Candidates are drawn alternately into two streams and only collisions
    across streams are accepted, mirroring the search for a pair (b, b').
    Returns ((first-drawn candidate, second-drawn candidate), value).
    """
    first_seen: dict = {}
    second_seen: dict = {}
    while True:
        x = next(candidates)
        dx = evaluate(x)
        if dx in second_seen:
            return (second_seen[dx], x), dx
        first_seen.setdefault(dx, x)
        y = next(candidates)
        dy = evaluate(y)
        if dy in first_seen:
            return (first_seen[dy], y), dy
        second_seen.setdefault(dy, y)


def block_pair_collision(oracle: CompressionOracle, h: int,
                         sampler: Optional[BlockSampler] = None):
    """Two distinct blocks b, b' with compress(h, b) == compress(h, b').

    Returns (b, b', next state, distinct queries spent).  Expected cost is a
    small constant times 2^(n/2).
    """
    if sampler is None:
        sampler = BlockSampler(oracle.m, derive_seed(oracle.seed, f"pair:{h}"))
    start = oracle.query_count
    (b1, b2), digest = _cross_collision(lambda b: oracle.compress(h, b), sampler)
    return b1, b2, digest, oracle.query_count - start


def verify_multicollision(oracle: CompressionOracle, sched: Schedule, h0: int,
                          mc: MulticollisionSet,
                          cap: int = DEFAULT_EXPANSION_CAP) -> VerificationResult:
    """Expand the multicollision and hash every message along the schedule
    word for its length on the given (counter-isolated) oracle, confirming
    one common digest and pairwise distinct messages.

    The set is rejected without a query unless it is well formed, the word
    covers 1..l within the schedule's declared bound, and h0 and every block
    lie in the oracle's ranges.  Expansions beyond `cap` are sampled
    deterministically instead of fully enumerated; the result is then
    flagged complete=False.
    """
    try:
        mc.validate()
        alpha = validate_schedule_word(sched, mc.length)
        blocks = chain(mc.base_blocks.values(), *(c for g in mc.groups for c in g.choices))
        if not (0 <= h0 < 1 << oracle.n and all(0 <= b < 1 << oracle.m for b in blocks)):
            raise ValueError("h0 or a block lies outside the oracle's range")
    except (ValueError, TypeError, AttributeError):
        return VerificationResult(False, True, 0)
    size = mc.expansion_size
    if size <= cap:
        complete = True
        selections = product(*(range(len(g.choices)) for g in mc.groups))
    else:
        complete = False
        state = derive_seed(0xC011EC7, f"sample:{size}")
        picks = []
        for _ in range(cap):
            selection = []
            for group in mc.groups:
                state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
                selection.append(state % len(group.choices))
            picks.append(tuple(selection))
        selections = iter(picks)

    compress = oracle.compress
    digest = None
    seen_selections: set = set()
    seen_messages: set = set()
    checked = 0
    for selection in selections:
        selection = tuple(selection)
        if selection in seen_selections:
            continue  # sampling mode may redraw a combination
        seen_selections.add(selection)
        message = mc.message(selection)
        if message in seen_messages:
            return VerificationResult(False, complete, checked)
        seen_messages.add(message)
        value = h0
        for sym in alpha:
            value = compress(value, message[sym - 1])
        if digest is None:
            digest = value
        elif value != digest:
            return VerificationResult(False, complete, checked)
        checked += 1
    return VerificationResult(True, complete, checked, digest)


def _walk_level(oracle, part, units, fillers, state, search):
    """Hash one part of the schedule word and find one collision per unit.

    A unit is (positions, candidates): message positions whose occurrences
    form one span of the part, and block tuples aligned with them.  Filler
    blocks before each span are hashed; search(evaluate, candidates)
    replays the span per candidate and returns ((first, second), outgoing
    state), or None.  Returns the new groups, the part's outgoing state and
    the distinct queries of each search.
    """
    first = {}
    last = {}
    for idx, sym in enumerate(part):
        first.setdefault(sym, idx)
        last[sym] = idx
    compress = oracle.compress
    groups = []
    stage_queries = []
    cursor = 0
    for positions, candidates in units:
        begin = min(first[pos] for pos in positions)
        end = max(last[pos] for pos in positions)
        for sym in part[cursor:begin]:
            state = compress(state, fillers[sym])
        slot = {pos: at for at, pos in enumerate(positions)}
        # a span opens with one of its own positions; the rest of it pairs
        # each symbol with its candidate slot, or -1 and its filler block
        head = slot[part[begin]]
        rest = tuple((slot.get(sym, -1), fillers.get(sym))
                     for sym in part[begin + 1:end + 1])

        if rest:
            def evaluate(choice, state=state, head=head, rest=rest):
                value = compress(state, choice[head])
                for at, filler in rest:
                    value = compress(value, filler if at < 0 else choice[at])
                return value
        else:
            # a one-symbol span, as in every Joux stage: one compress call
            def evaluate(choice, state=state, head=head):
                return compress(state, choice[head])

        before = oracle.query_count
        found = search(evaluate, candidates)
        if found is None:
            raise ConstructionError(
                f"no collision among the candidates for positions {positions}")
        pair, state = found
        stage_queries.append(oracle.query_count - before)
        groups.append(CollisionGroup(positions, pair))
        cursor = end + 1
    for sym in part[cursor:]:
        state = compress(state, fillers[sym])
    return groups, state, stage_queries


def _inherited_units(groups, blocks):
    """One unit per block of a later level: the inherited groups tiling the
    block, with every combination of their choices as candidates."""
    owner = {pos: gi for gi, group in enumerate(groups) for pos in group.positions}
    for block in blocks:
        members = [groups[gi] for gi in dict.fromkeys(owner[pos] for pos in block)]
        positions = tuple(chain.from_iterable(g.positions for g in members))
        # the certificate guarantees previous groups tile each block exactly
        assert len(positions) == len(block)
        combos = product(*(g.choices for g in members))
        yield positions, (tuple(chain.from_iterable(combo)) for combo in combos)


def _attack(oracle, sched, q, alpha, cert, fillers, sampler, h0, a_tilde, expansion_cap):
    """Run the certificate's levels along the schedule word alpha, then
    verify the multicollision on a clone of the oracle.  Level i >= 2 cuts
    its part into n^(p-i) * k equal blocks; positions outside the
    subalphabet keep their filler block."""
    subset = set(cert.subalphabet)
    start = oracle.query_count
    raw_start = oracle.raw_calls
    state = h0
    groups = []
    stage_queries = []
    level_queries = []
    for level, part in enumerate(split_word(alpha, cert.splits), 1):
        order = condense(part, subset)
        if level == 1:
            fresh = zip(sampler)  # one-block candidates (b,)
            units = [((sym,), fresh) for sym in order]
            search = _cross_collision
        else:
            blocks = equal_blocks(order, cert.n ** (cert.p - level) * cert.k)
            units = _inherited_units(groups, blocks)
            search = table_collision
        before = oracle.query_count
        groups, state, stages = _walk_level(oracle, part, units, fillers, state, search)
        stage_queries.extend(stages)
        level_queries.append(oracle.query_count - before)

    length = max(alpha)  # alpha covers 1..l
    base_blocks = {pos: blk for pos, blk in fillers.items() if pos not in subset}
    mc = MulticollisionSet(length=length, groups=tuple(groups),
                           base_blocks=base_blocks, r=cert.k)
    mc.validate()
    attack_queries = oracle.query_count - start
    outcome = verify_multicollision(oracle.clone(), sched, h0, mc, cap=expansion_cap)
    report = AttackReport(
        r=cert.k, n=oracle.n, m=oracle.m, q=q, l=length,
        attack_queries=attack_queries,
        verify_ok=outcome.ok,
        bound=complexity_bound(oracle.n, q, cert.k, a_tilde),
        seed=oracle.seed, a_tilde=a_tilde, h0=h0, p=cert.p, schedule=sched.name,
        raw_calls=oracle.raw_calls - raw_start,
        stage_queries=tuple(stage_queries),
        level_queries=tuple(level_queries),
    )
    return mc, report


def joux_attack(oracle: CompressionOracle, h0: int, r: int, *,
                sampler: Optional[BlockSampler] = None,
                a_tilde: float = DEFAULT_A_TILDE,
                expansion_cap: int = DEFAULT_EXPANSION_CAP):
    """Build a 2^r-collision on the traditional iterated hash by chaining r
    independent block-pair collisions from h0.

    This is the attack engine on the identity word 1..r under the trivial
    certificate (every position, one part) with no filler blocks.  Returns
    (MulticollisionSet, AttackReport); the report's stage_queries reconcile
    exactly with attack_queries.
    """
    if r < 1:
        raise ValueError("collision exponent r must be >= 1")
    if sampler is None:
        sampler = BlockSampler(oracle.m, derive_seed(oracle.seed, "joux"))
    alpha = tuple(range(1, r + 1))
    cert = AttackCertificate(alpha, 1, (), oracle.n, r)
    return _attack(oracle, identity_schedule(), 1, alpha, cert, {}, sampler,
                   h0, a_tilde, expansion_cap)


def generalized_attack(oracle: CompressionOracle, sched: Schedule, q: int,
                       n_param: int, r: int, *, h0: int = 0,
                       sampler: Optional[BlockSampler] = None,
                       a_tilde: float = DEFAULT_A_TILDE,
                       expansion_cap: int = DEFAULT_EXPANSION_CAP):
    """Build a verified 2^r-collision on the q-bounded generalized iterated
    hash given by `sched`, using the smallest message length whose schedule
    word meets the attack-structure threshold.

    Returns (MulticollisionSet, AttackReport).
    """
    if r < 1:
        raise ValueError("collision exponent r must be >= 1")
    if q < 1:
        raise ValueError("occurrence bound q must be >= 1")
    if n_param != oracle.n:
        raise ValueError(f"n_param {n_param} != oracle hash length {oracle.n}")
    if sched.q_bound > q:
        raise ValueError(
            f"schedule declares bound {sched.q_bound}, exceeding q = {q}")
    length = attack_threshold(n_param, r, q)
    try:
        alpha = validate_schedule_word(sched, length)
    except ValueError as exc:
        raise ValueError(
            f"schedule cannot serve the required message length l = {length}: {exc}"
        ) from exc
    cert = find_attack_structure(alpha, n_param, r, q)
    if sampler is None:
        sampler = BlockSampler(oracle.m, derive_seed(oracle.seed, "gihf"))
    fillers = {pos: next(sampler) for pos in range(1, length + 1)}
    return _attack(oracle, sched, q, alpha, cert, fillers, sampler,
                   h0, a_tilde, expansion_cap)
