"""Multicollision attacks on the simulated hash constructions.

One engine runs every attack.  An attack certificate (see nesting) cuts the
schedule word into parts that condense to permutations of a subalphabet B,
and one level walker hashes each part, running one table search
(hashsim.table_collision) for each of the equal blocks of B-positions that
nesting.level_layout cuts it into.  Every level searches the same way; only
its candidates differ.  Level 1 cuts into singletons and searches the sampler's
raw blocks for a pair per B-position, as Joux does per stage; each later level
collapses the >= 2^n combinations of the groups a block inherits.  Those
candidates come in product order, so consecutive ones share every step of
their span before the first slot where their blocks differ; each resumes
the previous candidate's walk there, and a collapse level compresses about
once per distinct query.  Iteration order is fixed, so an oracle seed
reproduces the attack byte for byte.  joux_attack, Joux's chained pair
collisions, is the q=1 case: the identity word 1..r in one part, with no
filler blocks.

An attack owns its oracle exclusively while it runs.  A schedule is only
its words, so the attack reads q-boundedness from the word it attacks:
find_structure rejects a word that is not q-bounded.  Verification checks
the schedule word's coverage of 1..l, then hashes all 2^r expanded
messages together in one pass along that word on a counter-isolated clone,
so audit queries never pollute the attack cost.
The pass keeps only the picks of the groups still being read, so a Joux
2^r-collision costs 2r compressions, not r * 2^r, and it hashes runs of
fixed blocks with hashsim.f_plus.  Each group read is one frontier step,
and a group read once, as every Joux group is, never enters the key.  The
expansion cap bounds that frontier; a set that outgrows it is sampled
instead, with cap distinct messages drawn by a seeded walk over the 2^r
selections.  Sampled messages, and sets of at most eight messages, are
hashed one message at a time with hashsim.f_alpha, the iterated compression
itself, which stops at a hostile set's second digest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, count, groupby, islice, product
from typing import Iterator, Optional, Sequence

from .hashsim import (
    BlockSampler,
    CompressionOracle,
    Schedule,
    derive_seed,
    f_alpha,
    f_plus,
    identity_schedule,
    table_collision,
    validate_schedule_word,
)
from .nesting import (
    AttackCertificate,
    ConstructionError,
    attack_threshold,
    find_attack_structure,
    level_layout,
)
from .regularity import DEFAULT_MAX_FACTORIZATIONS, factorization_count
from .words import integers, require_int, spans

DEFAULT_A_TILDE = 2.5
DEFAULT_EXPANSION_CAP = 1 << 16
# Sets of at most this many messages, the q=2 attack's 4-message sets among
# them, are hashed one message at a time, not by the one-pass frontier,
# though the frontier is as fast or faster at these sizes (separate vs
# frontier, CPython 3.11.7 on a shared 2-CPU VM, in process on fresh oracle
# clones, minimum of 9 round medians, two runs: Joux 2^1-set 11-12 vs 7-11
# us, 2^2-set 19-28 vs 11-18 us, 2^3-set 39 vs 16 us, the genuine q=2
# 4-message set at n = 16, l = 993 4.7-4.8 vs 4.3-4.5 ms): only separate
# hashing stops at a hostile set's second digest.  The constant stays only
# for the 8 * 3 compress calls bench/test_perfbench.py traces for a Joux
# 2^3-set's verification, until ROADMAP item 5 removes that figure with it.
SEPARATE_HASHING_MAX = 8


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
        for group in self.groups:
            if len(group.choices) < 2:
                raise ValueError("each group needs at least two choices")
            if any(len(c) != len(group.positions) for c in group.choices):
                raise ValueError("choice width must match the group positions")
            if len(set(group.choices)) != len(group.choices):
                raise ValueError("a group repeats a choice")
        # length positions, repeats counted, that cover 1..length hold each
        # once; cheap size checks come first, so a hostile length or r never
        # builds a huge set or integer
        positions = [*chain.from_iterable(g.positions for g in self.groups), *self.base_blocks]
        if len(positions) != self.length or set(positions) != set(range(1, self.length + 1)):
            raise ValueError("groups plus base blocks must cover every position exactly once")
        expansion = self.expansion_size
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
        malformed data, including any non-integer field and any base
        position given twice."""
        length, r = data["length"], data["r"]
        groups = tuple(CollisionGroup(tuple(g["positions"]), tuple(map(tuple, g["choices"])))
                       for g in data["groups"])
        base = tuple(map(tuple, data["base_blocks"]))
        # every integer field in one check
        integers(chain((length, r), *(g.positions for g in groups),
                       *(c for g in groups for c in g.choices), *base))
        base_blocks = dict(base)
        if len(base_blocks) != len(base):
            raise ValueError("a base position is given twice")
        return cls(length=length, groups=groups, base_blocks=base_blocks, r=r)


@dataclass(frozen=True)
class AttackReport:
    """Outcome and exact cost accounting of one attack run.

    attack_queries counts distinct compression queries spent by the attack
    itself; raw_calls counts every compress call the attack made, the
    distinct queries plus the repeated evaluations of known pairs.  Level 1
    draws raw sampler blocks, one compress call per draw on a one-symbol
    span, so a Joux attack's raw_calls equals its attack_queries.  Every
    longer span, raw or not, and so every later level's candidate, resumes
    the previous candidate's walk instead of re-walking the span, so
    raw_calls stays within about 1% of attack_queries on the q=2 attack.
    stage_queries gives the per-stage split (per pair collision for
    the first level, per collapsed group afterwards), which also records the
    per-position reading of the first-level cost estimate next to the
    per-symbol one implied by walking the whole part.  The fields are the
    report's format: to_dict writes them with asdict, plus the constant
    a_tilde (DEFAULT_A_TILDE) that the bound reads.
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
    h0: int
    p: int
    schedule: str
    raw_calls: int
    stage_queries: tuple
    level_queries: tuple

    def to_dict(self) -> dict:
        return {**asdict(self), "a_tilde": DEFAULT_A_TILDE}


@dataclass(frozen=True)
class VerificationResult:
    """Truthy iff verification passed; complete=False flags sampling mode."""

    ok: bool
    complete: bool
    checked: int
    digest: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def complexity_bound(n: int, q: int, l: int):
    """Query bound a~ * q * N^ * 2^(n/2), with a~ = DEFAULT_A_TILDE, for an
    attack on a q-bounded construction of hash length n that ran on a
    message of N^ = l blocks.  Both attacks build a 2^r-collision on
    l = nesting.attack_threshold(n, r, q) blocks: r for q = 1 (one pair
    search per stage), the exact forcing boundary (nr)^2 - nr + 1 for q = 2
    and the proven upper bound for q >= 3.  Returns an int whenever the
    value is integral.
    """
    require_int(n, "hash length n")
    require_int(q, "occurrence bound q")
    require_int(l, "message length l")
    value = Fraction(DEFAULT_A_TILDE) * q * l * (2 ** (n // 2))
    if n % 2:
        return float(value) * math.sqrt(2)
    return int(value) if value.denominator == 1 else float(value)


def verify_multicollision(oracle: CompressionOracle, sched: Schedule, h0: int,
                          mc: MulticollisionSet,
                          cap: int = DEFAULT_EXPANSION_CAP) -> VerificationResult:
    """Hash every expanded message along the schedule word for its length on
    the given (counter-isolated) oracle, confirming one common digest and
    pairwise distinct messages.

    The set is rejected without a query unless it is well formed (which
    includes that no group repeats a choice: the groups cover disjoint
    nonempty positions, so that is exactly the distinctness of the
    messages), the word covers 1..l, and h0 and every block lie in the
    oracle's ranges.  A set of at most SEPARATE_HASHING_MAX (and at most
    `cap`) messages then has each message hashed on its own; a larger one
    has all its messages hashed together in one pass over the word, whose
    frontier of (live picks, state) pairs `cap` bounds.  A set whose
    frontier would outgrow `cap` is sampled instead and flagged
    complete=False: min(cap, 2^r) pairwise distinct messages, drawn by a
    seeded walk over the selection indices, are each hashed on their own.
    checked counts the messages verified, 0 on rejection.  Rejects a cap
    below 1 or not an integer (require_int).
    """
    require_int(cap, "verification cap")
    try:
        mc.validate()
        alpha = validate_schedule_word(sched, mc.length)
        blocks = chain(mc.base_blocks.values(), *(c for g in mc.groups for c in g.choices))
        if not (0 <= h0 < 1 << oracle.n
                and all(b >= 0 and b.bit_length() <= oracle.m for b in blocks)):
            raise ValueError("h0 or a block lies outside the oracle's range")
    except (ValueError, TypeError, AttributeError):
        return VerificationResult(False, True, 0)

    complete, checked = True, mc.expansion_size
    if checked <= min(cap, SEPARATE_HASHING_MAX):
        digests = _message_digests(oracle, alpha, h0, mc.messages())
    else:
        digests = _frontier_digests(oracle, alpha, h0, mc, cap)
    if digests is None:
        selections = _sampled_selections(mc, cap)
        complete, checked = False, len(selections)
        digests = _message_digests(oracle, alpha, h0, map(mc.message, selections))
    if len(digests) != 1:
        return VerificationResult(False, complete, 0)
    return VerificationResult(True, complete, checked, next(iter(digests)))


def _message_digests(oracle: CompressionOracle, alpha, h0: int, messages) -> set:
    """The digests f_alpha of the messages, each hashed on its own; stops
    at the second distinct digest."""
    digests: set = set()
    for message in messages:
        digests.add(f_alpha(oracle, h0, message, alpha))
        if len(digests) > 1:
            break
    return digests


def _frontier_digests(oracle: CompressionOracle, alpha, h0: int, mc: MulticollisionSet,
                      cap: int) -> Optional[set]:
    """The digests of all messages of mc along alpha, from one pass over it;
    None as soon as the frontier would exceed cap (key, state) pairs.

    The frontier is the set of (key, state) pairs the pass has reached, the
    key holding the picks of the live groups, those read both behind and
    ahead of the pass.  Each group read is one step: a group's first read
    hashes every pair with each of its choices, after the cap check, and a
    later read with the key's pick.  The pick sits in the key from the
    first read to the last, where it is dropped and the pairs that then
    agree merge: the rest of the word never reads its blocks again.  A
    group read once joins and leaves in one step and never enters the key.
    Runs of base positions are hashed with f_plus, pair by pair.
    """
    compress = oracle.compress
    owner = {pos: (gi, at) for gi, group in enumerate(mc.groups)
             for at, pos in enumerate(group.positions)}
    # each group's first and last read, indexed among the group reads only
    first, last = spans(owner[pos][0] for pos in alpha if pos in owner)
    reads = count()
    live: list = []  # the groups whose picks make up the key, in key order
    frontier = {((), h0)}
    for in_group, run in groupby(alpha, owner.__contains__):
        if not in_group:
            blocks = [mc.base_blocks[pos] for pos in run]
            frontier = {(key, f_plus(oracle, state, blocks)) for key, state in frontier}
            continue
        for pos, i in zip(run, reads):  # run first: its end draws no index
            gi, at = owner[pos]
            choices = mc.groups[gi].choices
            joining, leaving = i == first[gi], i == last[gi]
            if joining:
                if len(frontier) * len(choices) > cap:
                    return None
                live.append(gi)
            k = live.index(gi)  # the pick's index in the key, or where it joins
            if leaving:
                del live[k]
            frontier = {(key[:k] + (pick,) * (not leaving) + key[k + 1:],
                         compress(state, choices[pick][at]))
                        for key, state in frontier
                        for pick in (range(len(choices)) if joining else (key[k],))}
    return {state for _, state in frontier}


def _sampled_selections(mc: MulticollisionSet, cap: int) -> list:
    """min(cap, 2^r) distinct group selections: a seeded BlockSampler walks
    the indices 0..2^r - 1, each read as one mixed-radix digit per group (a
    bijection, since the group sizes multiply to 2^r)."""
    indices = BlockSampler(mc.r, derive_seed(0xC011EC7, f"sample:{mc.expansion_size}"))
    selections = []
    for index in islice(indices, min(cap, mc.expansion_size)):
        selection = []
        for group in mc.groups:
            index, pick = divmod(index, len(group.choices))
            selection.append(pick)
        selections.append(tuple(selection))
    return selections


def _walk_level(oracle, part, units, fillers, state):
    """Hash one part of the schedule word and find one collision per unit.

    A unit is (positions, candidates): message positions whose occurrences
    form one span of the part, and block tuples aligned with them, or, at
    the first level, the BlockSampler itself, whose raw blocks fill the
    unit's one position.  Filler blocks before each span are hashed;
    table_collision then hashes the span per candidate, in draw order,
    until two candidates reach one outgoing state.  A raw one-symbol span,
    as in every Joux stage, costs one compress call per draw, and only its
    colliding pair is wrapped into one-block choices.  Every other span is
    walked by _resumed_walk, where each candidate resumes the previous
    candidate's walk at the first slot where their blocks differ, not at
    the span's start; a longer raw span (a one-part certificate on the
    mirror word) reads each draw as a one-block choice.  Returns the new
    groups, the part's outgoing state and the distinct queries of each
    search.
    """
    first, last = spans(part)
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
        # each symbol of the span reads its candidate slot, or -1 and its
        # filler block; a span opens with one of its own positions
        steps = tuple((slot.get(sym, -1), fillers.get(sym)) for sym in part[begin:end + 1])

        if isinstance(candidates, BlockSampler) and len(steps) > 1:
            candidates = zip(candidates)  # (b,) choices for the one position
        raw = isinstance(candidates, BlockSampler)
        # a raw one-symbol span is every Joux stage
        evaluate = partial(compress, state) if raw else _resumed_walk(compress, state, steps)

        before = oracle.query_count
        found = table_collision(evaluate, candidates)
        if found is None:
            raise ConstructionError(
                f"no collision among the candidates for positions {positions}")
        pair, state = found
        if raw:
            pair = tuple(zip(pair))  # (b,) choices for the one position
        stage_queries.append(oracle.query_count - before)
        groups.append(CollisionGroup(positions, pair))
        cursor = end + 1
    for sym in part[cursor:]:
        state = compress(state, fillers[sym])
    return groups, state, stage_queries


def _resumed_walk(compress, state, steps):
    """evaluate(choice) for a span and candidates that are block tuples:
    the state that hashing `steps` from `state` reaches, where a step
    (at, filler) reads the candidate's block choice[at], or its filler
    block when at is -1.

    The states along the previous candidate's walk are kept.  A candidate
    resumes at the first read of its first slot, in read order, whose block
    differs from the previous candidate's: every step before it reads equal
    blocks from equal states.  A slot read more than once in the span (a
    one-part certificate on the mirror word, or a part of a 3-bounded word)
    counts at its first read.
    """
    first_read, _ = spans(at for at, _ in steps)
    # slots in read order, each with its first step; a filler step is at -1
    reads = tuple((at, step) for at, step in first_read.items() if at >= 0)
    trail = [state]  # trail[i]: the state before step i of the previous walk
    previous = (None,) * len(reads)  # no block is None: the first walk starts at step 0

    def evaluate(choice):
        nonlocal previous
        for at, step in reads:
            if choice[at] != previous[at]:
                break
        del trail[step + 1:]
        value = trail[step]
        for at, filler in steps[step:]:
            value = compress(value, filler if at < 0 else choice[at])
            trail.append(value)
        previous = choice
        return value

    return evaluate


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


def _attack(oracle, sched, q, alpha, cert, fillers, sampler, h0, expansion_cap):
    """Run the certificate's levels along the schedule word alpha, then
    verify the multicollision on a clone of the oracle.  Each level cuts
    its condensed part into equal blocks (nesting.level_layout), singletons
    at level 1; positions outside the subalphabet keep their filler block."""
    start = oracle.query_count
    raw_start = oracle.raw_calls
    state = h0
    groups = []
    stage_queries = []
    level_queries = []
    for level, (part, blocks) in enumerate(level_layout(alpha, cert), 1):
        if level == 1:
            units = [(block, sampler) for block in blocks]  # raw blocks
        else:
            units = _inherited_units(groups, blocks)
        before = oracle.query_count
        groups, state, stages = _walk_level(oracle, part, units, fillers, state)
        stage_queries.extend(stages)
        level_queries.append(oracle.query_count - before)

    length = max(alpha)  # alpha covers 1..l
    subset = set(cert.subalphabet)
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
        bound=complexity_bound(oracle.n, q, length),
        seed=oracle.seed, h0=h0, p=cert.p, schedule=sched.name,
        raw_calls=oracle.raw_calls - raw_start,
        stage_queries=tuple(stage_queries),
        level_queries=tuple(level_queries),
    )
    return mc, report


def joux_attack(oracle: CompressionOracle, h0: int, r: int, *,
                expansion_cap: int = DEFAULT_EXPANSION_CAP):
    """Build a 2^r-collision on the traditional iterated hash by chaining r
    block-pair collisions from h0, each the first repeated value of
    compress(h, .) over the next fresh blocks of one sampler stream.

    This is the attack engine on the identity word 1..r under the trivial
    certificate (every position, one part) with no filler blocks.  Returns
    (MulticollisionSet, AttackReport); the report's stage_queries reconcile
    exactly with attack_queries.
    """
    require_int(r, "collision exponent r")
    sampler = BlockSampler(oracle.m, derive_seed(oracle.seed, "joux"))
    alpha = tuple(range(1, r + 1))
    cert = AttackCertificate(alpha, 1, (), oracle.n, r)
    return _attack(oracle, identity_schedule(), 1, alpha, cert, {}, sampler,
                   h0, expansion_cap)


def generalized_attack(oracle: CompressionOracle, sched: Schedule, q: int,
                       n_param: int, r: int, *, h0: int = 0):
    """Build a verified 2^r-collision on the q-bounded generalized iterated
    hash given by `sched`, using the smallest message length whose schedule
    word meets the attack-structure threshold.

    Returns (MulticollisionSet, AttackReport).
    """
    require_int(r, "collision exponent r")
    require_int(q, "occurrence bound q")
    if n_param != oracle.n:
        raise ValueError(f"n_param {n_param} != oracle hash length {oracle.n}")
    # refuse, unbuilt, a word find_structure would refuse: its count grows
    # with the length, and at q >= 2 passes the cap by cap + 2 letters, so
    # the length needs building only past that check, where it is small
    cap = DEFAULT_MAX_FACTORIZATIONS
    if factorization_count(attack_threshold(n_param, r, q, at_most=cap + 2), q) > cap:
        raise ValueError(f"the structure search for (n={n_param}, r={r}, q={q}) would "
                         f"examine more than {cap} factorizations of the schedule word")
    length = attack_threshold(n_param, r, q)
    try:
        alpha = validate_schedule_word(sched, length)
    except ValueError as exc:
        raise ValueError(
            f"schedule cannot serve the required message length l = {length}: {exc}"
        ) from exc
    cert = find_attack_structure(alpha, n_param, r, q)
    sampler = BlockSampler(oracle.m, derive_seed(oracle.seed, "gihf"))
    fillers = {pos: next(sampler) for pos in range(1, length + 1)}
    return _attack(oracle, sched, q, alpha, cert, fillers, sampler,
                   h0, DEFAULT_EXPANSION_CAP)
