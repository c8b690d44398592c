"""Multicollision attacks on the simulated hash constructions.

One engine runs every attack.  An attack certificate (see nesting) cuts the
schedule word into parts that condense to permutations of a subalphabet B,
and one level walker hashes each part, running one table search
(hashsim.table_collision) for each of the equal blocks of B-positions that
nesting.level_layout cuts it into.  Every level searches the same way; only
its candidates differ.  Level 1 cuts into singletons and searches the sampler's
raw blocks for a pair per B-position, as Joux does per stage; each later level
collapses the >= 2^n combinations of the G two-choice groups a block
inherits.  Its candidates are the indices 0..2^G - 1, one choice bit per
group in product order, so candidate i changes only the last ctz(i) + 1
groups of its predecessor; it resumes the previous candidate's walk at a
step precomputed for that suffix, and a collapse level compresses about
once per distinct query.  Only the colliding pair becomes block tuples.
Iteration order is fixed, so an oracle seed reproduces the attack byte for
byte.  One sampler stream gives each position outside B its filler block,
in position order, then level 1's candidates.  Level 1 reads them through
one hashsim.Lookahead, which draws the stream in batches and has the
oracle precompute each batch at the stage's state, so a stage still makes
one compress call per draw and every stage continues the stream where the
last one stopped.  joux_attack, Joux's chained pairs, is the q = 1 case:
the identity word 1..r, B = 1..r, no fillers.

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
hashed one message at a time, which stops at a hostile set's second digest.
Every route reads one cut of the word, made once per check (_steps): a
group read compresses with the message's pick, and a run of fixed blocks
is hashed with f_plus, by the one-message route only when the message
enters it at another state than the last message did, so the later
messages of a genuine set pay only for their group reads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, groupby, islice, product
from typing import Iterator, Optional, Sequence

from .hashsim import (
    CompressionOracle,
    Lookahead,
    Schedule,
    block_stream,
    derive_seed,
    f_plus,
    identity_schedule,
    table_collision,
    validate_schedule_word,
)
from .nesting import (
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
# them, are hashed one message at a time, not by the one-pass frontier: only
# separate hashing stops at a hostile set's second digest.  Since it reuses
# a fixed run's leaving state for an equal entering state, it beats the
# frontier on the genuine q=2 4-message set at n = 16, l = 993 and trails it
# on small Joux sets (separate vs frontier, CPython 3.11.7 on a shared 2-CPU
# VM, in process on fresh oracle clones, minimum of 9 round medians: Joux
# 2^1-set 6-10 vs 6-8 us, 2^2-set 10-17 vs 9-15 us, 2^3-set 18-29 vs 12-21
# us, the q=2 set 2.3-3.3 vs 3.5-3.7 ms).  The constant stays 8 for the
# 8 * 3 compress calls bench/test_perfbench.py traces for a Joux 2^3-set's
# verification, until ROADMAP item 5 removes that figure with it.
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

    def selections(self) -> Iterator[tuple[int, ...]]:
        """One pick per group for each expanded message, in product order:
        the last group's pick varies fastest."""
        return product(*(range(len(g.choices)) for g in self.groups))

    def messages(self) -> Iterator[tuple[int, ...]]:
        return map(self.message, self.selections())

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
    span, so a Joux attack's raw_calls equals its attack_queries.  A longer
    raw span is walked whole per draw.  A later level's candidate, an index
    over the groups it inherits, resumes the previous candidate's walk at
    the first read its flipped groups change, instead of re-walking the
    span, so raw_calls stays within about 1% of attack_queries on the q=2
    attack.
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
    message of N^ = l blocks.  The attack, Joux's at q = 1, builds a
    2^r-collision on l = nesting.attack_threshold(n, r, q) blocks: r for
    q = 1 (one pair search per stage), the exact forcing boundary
    (nr)^2 - nr + 1 for q = 2 and the proven upper bound for q >= 3.
    Returns an int whenever the value is integral.
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
    `cap`) messages then has each message hashed on its own, in the order
    of MulticollisionSet.selections (_message_digests); a larger one has
    all its messages hashed together in one pass over the word, whose
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
    steps = _steps(alpha, mc)
    if checked <= min(cap, SEPARATE_HASHING_MAX):
        digests = _message_digests(oracle, steps, h0, mc.selections())
    else:
        digests = _frontier_digests(oracle, steps, h0, cap)
    if digests is None:
        selections = _sampled_selections(mc, cap)
        complete, checked = False, len(selections)
        digests = _message_digests(oracle, steps, h0, selections)
    if len(digests) != 1:
        return VerificationResult(False, complete, 0)
    return VerificationResult(True, complete, checked, next(iter(digests)))


def _steps(alpha, mc: MulticollisionSet) -> list:
    """mc's blocks along alpha, as every verification route hashes them:
    (gi, group gi's block per pick) for each group read and (None, blocks)
    for each run of base positions."""
    owner = {pos: (gi, at) for gi, group in enumerate(mc.groups)
             for at, pos in enumerate(group.positions)}
    steps = []
    for in_group, run in groupby(alpha, owner.__contains__):
        if in_group:
            steps.extend((gi, [choice[at] for choice in mc.groups[gi].choices])
                         for gi, at in map(owner.__getitem__, run))
        else:
            steps.append((None, [mc.base_blocks[pos] for pos in run]))
    return steps


def _message_digests(oracle: CompressionOracle, steps, h0: int, selections) -> set:
    """The digests of the selected messages along the steps (_steps), each
    message hashed on its own; stops at the second distinct digest.

    A group read compresses with the selection's pick.  A base run is
    hashed with f_plus only when its entering state differs from the last
    state that entered it, so the pass keeps one (entering, leaving) pair
    per run, however many messages it hashes.
    """
    compress = oracle.compress
    last = [(None, None)] * len(steps)  # per base run: the last (entering, leaving) pair
    digests: set = set()
    for selection in selections:
        state = h0
        for k, (gi, blocks) in enumerate(steps):
            if gi is not None:
                state = compress(state, blocks[selection[gi]])
            elif last[k][0] == state:
                state = last[k][1]
            else:
                entering, state = state, f_plus(oracle, state, blocks)
                last[k] = (entering, state)
        digests.add(state)
        if len(digests) > 1:
            break
    return digests


def _frontier_digests(oracle: CompressionOracle, steps, h0: int, cap: int) -> Optional[set]:
    """The digests of all messages along the steps (_steps), from one pass
    over them; None as soon as the frontier would exceed cap (key, state)
    pairs.

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
    # each group's first and last read, indexed among the steps
    first, last = spans(gi for gi, _ in steps)
    live: list = []  # the groups whose picks make up the key, in key order
    frontier = {((), h0)}
    for i, (gi, blocks) in enumerate(steps):
        if gi is None:
            frontier = {(key, f_plus(oracle, state, blocks)) for key, state in frontier}
            continue
        joining, leaving = i == first[gi], i == last[gi]
        if joining:
            if len(frontier) * len(blocks) > cap:
                return None
            live.append(gi)
        k = live.index(gi)  # the pick's index in the key, or where it joins
        if leaving:
            del live[k]
        frontier = {(key[:k] + (pick,) * (not leaving) + key[k + 1:],
                     compress(state, blocks[pick]))
                    for key, state in frontier
                    for pick in (range(len(blocks)) if joining else (key[k],))}
    return {state for _, state in frontier}


def _sampled_selections(mc: MulticollisionSet, cap: int) -> list:
    """min(cap, 2^r) distinct group selections: a seeded block_stream walks
    the indices 0..2^r - 1, each read as one mixed-radix digit per group (a
    bijection, since the group sizes multiply to 2^r)."""
    indices = block_stream(mc.r, derive_seed(0xC011EC7, f"sample:{mc.expansion_size}"))
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

    A unit is (positions, source): message positions whose occurrences form
    one span of the part, and where their candidates come from.  At the
    first level the source is the Lookahead over the block stream, whose
    raw blocks, warmed at the span's entering state, fill the unit's one
    position, whatever the span's length; at a later level it is the tuple
    of the G inherited groups tiling the unit, each with two choices, whose
    candidates are the indices 0..2^G - 1 (_index_walk).  Filler blocks
    before each span are hashed; table_collision then hashes the span per
    candidate, in draw order, until two candidates reach one outgoing state.
    A raw one-symbol span, as in every Joux stage, costs one compress call
    per draw, and a longer raw span (a one-part certificate on the mirror
    word) is walked whole per draw.  Only the colliding pair becomes
    choices: one-block choices for raw blocks, block tuples aligned with the
    positions for indices.  Returns the new groups, the part's outgoing
    state and the distinct queries of each search.
    """
    first, last = spans(part)
    compress = oracle.compress
    groups = []
    stage_queries = []
    cursor = 0
    for positions, source in units:
        begin = min(first[pos] for pos in positions)
        end = max(last[pos] for pos in positions)
        for sym in part[cursor:begin]:
            state = compress(state, fillers[sym])
        # a span opens with one of the unit's own positions
        span = part[begin:end + 1]
        raw = not isinstance(source, tuple)  # an index unit's source is its groups
        if raw:
            candidates = source.at(state)
            evaluate = (partial(compress, state) if len(span) == 1  # every Joux stage
                        else partial(_span_walk, compress, state, span, positions[0], fillers))
        else:
            candidates = range(1 << len(source))
            evaluate = _index_walk(compress, state, span, source, fillers)

        before = oracle.query_count
        found = table_collision(evaluate, candidates)
        if found is None:
            raise ConstructionError(
                f"no collision among the candidates for positions {positions}")
        pair, state = found
        if raw:
            pair = tuple(zip(pair))  # (b,) choices for the one position
        else:
            pair = tuple(_combination(source, i) for i in pair)
        stage_queries.append(oracle.query_count - before)
        groups.append(CollisionGroup(positions, pair))
        cursor = end + 1
    for sym in part[cursor:]:
        state = compress(state, fillers[sym])
    return groups, state, stage_queries


def _span_walk(compress, state, span, position, fillers, block):
    """The state that hashing `span` from `state` reaches with `block` at
    every read of `position` and filler blocks elsewhere."""
    for sym in span:
        state = compress(state, block if sym == position else fillers[sym])
    return state


def _index_walk(compress, state, span, members, fillers):
    """evaluate(i) for a collapse unit: the state that hashing `span` from
    `state` reaches under candidate i, which picks choice bit G - 1 - g of
    i for member g of the G members, so 0..2^G - 1 is the product order of
    their choices.  Candidates must come in that order.

    Candidate i differs from i - 1 exactly in the last ctz(i) + 1 members,
    the set bits of i ^ (i - 1), so it keeps the states along the previous
    walk and resumes at the earliest read, among those members' slots,
    whose two choices differ: every step before it reads equal blocks from
    equal states.  Those steps are precomputed for each suffix length, and
    candidate 0 starts at step 0.
    """
    width = len(members)
    owner = {pos: (width - 1 - g, at) for g, member in enumerate(members)
             for at, pos in enumerate(member.positions)}
    reads = []  # per step: the bit of i that picks its block, and both blocks
    earliest = [len(span)] * width  # per bit: its first read whose choices differ
    for step, sym in enumerate(span):
        if sym in owner:
            bit, at = owner[sym]
            blocks = tuple(choice[at] for choice in members[width - 1 - bit].choices)
            if blocks[0] != blocks[1]:
                earliest[bit] = min(earliest[bit], step)
        else:
            bit, blocks = 0, (fillers[sym],) * 2
        reads.append((bit, blocks))
    # resume[s]: the step for candidates whose low s bits flip, s = ctz(i) + 1
    # being the bit length of i & -i (0 for i = 0)
    resume = (0, *accumulate(earliest, min))
    trail = [state]  # trail[k]: the state before step k of the previous walk

    def evaluate(i):
        step = resume[(i & -i).bit_length()]
        del trail[step + 1:]
        value = trail[step]
        for bit, blocks in reads[step:]:
            value = compress(value, blocks[i >> bit & 1])
            trail.append(value)
        return value

    return evaluate


def _combination(members, i):
    """Candidate i of _index_walk as one block tuple aligned with the
    members' positions, in order."""
    width = len(members)
    return tuple(chain.from_iterable(member.choices[i >> (width - 1 - g) & 1]
                                     for g, member in enumerate(members)))


def _inherited_units(groups, blocks):
    """One unit per block of a later level: the inherited groups tiling the
    block, in the block's order, as the source of its candidates."""
    owner = {pos: gi for gi, group in enumerate(groups) for pos in group.positions}
    for block in blocks:
        members = tuple(groups[gi] for gi in dict.fromkeys(owner[pos] for pos in block))
        positions = tuple(chain.from_iterable(g.positions for g in members))
        # the certificate guarantees previous groups tile each block exactly
        if len(positions) != len(block):
            raise ConstructionError(f"the inherited groups do not tile the block {block}")
        yield positions, members


def _attack(oracle, sched, q, alpha, cert, h0, expansion_cap):
    """Run the certificate's levels along the schedule word alpha, then
    verify the multicollision on a clone of the oracle.  One sampler stream
    fills each position outside the subalphabet, in position order, then
    gives level 1's candidates; each level cuts its condensed part into
    equal blocks (nesting.level_layout), singletons at level 1."""
    length = max(alpha)  # alpha covers 1..l
    subset = set(cert.subalphabet)
    sampler = block_stream(oracle.m, derive_seed(oracle.seed, "joux"))
    fillers = {pos: next(sampler) for pos in range(1, length + 1) if pos not in subset}
    candidates = Lookahead(oracle, sampler)  # level 1's, after the fillers
    raw_start = oracle.raw_calls
    state = h0
    groups = []
    stage_queries = []
    level_queries = []
    for level, (part, blocks) in enumerate(level_layout(alpha, cert), 1):
        if level == 1:
            units = [(block, candidates) for block in blocks]  # raw blocks
        else:
            units = _inherited_units(groups, blocks)
        before = oracle.query_count
        groups, state, stages = _walk_level(oracle, part, units, fillers, state)
        stage_queries.extend(stages)
        level_queries.append(oracle.query_count - before)

    mc = MulticollisionSet(length=length, groups=tuple(groups),
                           base_blocks=fillers, r=cert.k)
    mc.validate()
    outcome = verify_multicollision(oracle.clone(), sched, h0, mc, cap=expansion_cap)
    report = AttackReport(
        r=cert.k, n=oracle.n, m=oracle.m, q=q, l=length,
        attack_queries=sum(level_queries),
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

    This is the engine's q = 1 case, the identity word 1..r under its q = 1
    certificate (one part, B = 1..r, no fillers), so generalized_attack on
    identity_schedule() at q = 1 returns the same result: (MulticollisionSet,
    AttackReport), whose stage_queries reconcile exactly with attack_queries.
    """
    require_int(r, "collision exponent r")
    sched = identity_schedule()
    alpha = sched.generator(r)
    cert = find_attack_structure(alpha, oracle.n, r, 1)
    return _attack(oracle, sched, 1, alpha, cert, h0, expansion_cap)


def generalized_attack(oracle: CompressionOracle, sched: Schedule, q: int,
                       n_param: int, r: int, *, h0: int = 0):
    """Build a verified 2^r-collision on the q-bounded generalized iterated
    hash given by `sched`, using the smallest message length whose schedule
    word meets the attack-structure threshold; joux_attack is its q = 1 case.

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
    return _attack(oracle, sched, q, alpha, cert, h0, DEFAULT_EXPANSION_CAP)
