"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a PASS line on success (visible with -s or -rA); runtime
ceilings from the criteria are asserted alongside the functional checks.
"""

import json
import random
import statistics
import subprocess
import sys
import time

from gihflab.attacks import (
    CollisionGroup,
    MulticollisionSet,
    complexity_bound,
    generalized_attack,
    joux_attack,
    verify_multicollision,
)
from gihflab.hashsim import CompressionOracle, birthday_search, identity_schedule, mirror_schedule
from gihflab.nesting import (
    AttackCertificate,
    attack_threshold,
    factorization_subset,
    find_attack_structure,
    partition_bijection,
    verify_attack_structure,
    verify_nesting,
)
from gihflab.regularity import (
    StructureCertificate,
    find_structure,
    extremal_witness,
    verify_structure,
)

from support import (
    random_bounded_word,
    random_divisor_chain,
    random_equal_partition,
    random_permutations_of,
    random_two_permutation_word,
)

CLI = [sys.executable, "-m", "gihflab.cli"]


def _passed(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_exact_boundary_for_pairs():
    started = time.time()
    proc = subprocess.run(
        CLI + ["regularity", "compute-n", "--m", "2", "--q", "2"],
        capture_output=True, text=True)
    elapsed = time.time() - started
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["N"] == 3
    assert result["exhaustive"] is True
    assert elapsed < 10
    _passed("1", f"N(2,2) = 3 exhaustively in {elapsed:.2f}s")


def test_criterion_02_witness_family():
    started = time.time()
    for m in (2, 3, 4, 5):
        outcome = find_structure(extremal_witness(m), m, 2)
        assert outcome.certificate is None, m
        assert outcome.exhaustive
    rng = random.Random(12021)
    for m in (2, 3):
        size = m * m - m + 1
        for _ in range(100):
            w = random_bounded_word(rng, size, 2)
            outcome = find_structure(w, m, 2)
            assert outcome.certificate is not None, (m, w)
            assert verify_structure(w, outcome.certificate, m)
    elapsed = time.time() - started
    assert elapsed < 300
    _passed("2", f"witnesses certificate-free, 100+100 saturated words certified "
                 f"in {elapsed:.2f}s")


def test_criterion_03_block_matching_suite():
    started = time.time()
    rng = random.Random(33033)
    successes = 0
    for _ in range(500):
        k = rng.randint(1, 4)
        x = rng.randint(1, 3)
        ground = frozenset(range(k ** 3 * x))
        blocks_b = random_equal_partition(rng, ground, k)
        blocks_c = random_equal_partition(rng, ground, k)
        sigma = partition_bijection(blocks_b, blocks_c, x)
        assert sigma is not None
        assert all(len(blocks_b[i] & blocks_c[sigma[i]]) >= x for i in range(k))
        successes += 1
    elapsed = time.time() - started
    assert successes == 500
    assert elapsed < 60
    _passed("3", f"500/500 block matchings met the intersection target "
                 f"in {elapsed:.2f}s")


def test_criterion_04_subset_extraction_suite():
    started = time.time()
    rng = random.Random(44044)
    successes = 0
    for _ in range(200):
        r = rng.randint(1, 2)
        d = random_divisor_chain(rng, 8, r)
        size = d[0]
        for x in d[1:]:
            size *= x * x
        perms = random_permutations_of(rng, size, r + 1)
        subset = factorization_subset(perms, d)
        assert verify_nesting(perms, d, subset)
        successes += 1
    elapsed = time.time() - started
    assert successes == 200
    assert elapsed < 300
    _passed("4", f"200/200 subsets extracted and verified in {elapsed:.2f}s")


def test_criterion_05_attack_structure_pipeline():
    started = time.time()
    rng = random.Random(55055)
    successes = 0
    for n in (4, 8):
        size = (2 * n) ** 2 - 2 * n + 1
        for _ in range(25):
            alpha = random_two_permutation_word(rng, size)
            cert = find_attack_structure(alpha, n, 2, 2)
            assert verify_attack_structure(alpha, cert)
            successes += 1
    elapsed = time.time() - started
    assert successes == 50
    assert elapsed < 300
    _passed("5", f"50/50 attack certificates found and verified in {elapsed:.2f}s")


def test_criterion_06_joux_attack():
    started = time.time()
    totals = []
    for seed in range(10):
        oracle = CompressionOracle(16, 24, seed=6000 + seed)
        mc, report = joux_attack(oracle, 0, 6)
        assert report.verify_ok
        assert len(set(mc.messages())) == 64
        totals.append(report.attack_queries)
    mean = statistics.mean(totals)
    elapsed = time.time() - started
    assert 1536 <= mean <= 7680
    assert elapsed < 60
    _passed("6", f"10/10 verified 64-collisions, mean {mean:.0f} queries "
                 f"in {elapsed:.2f}s")


def test_criterion_07_generalized_attack_q2():
    bound = complexity_bound(16, 2, attack_threshold(16, 2, 2))
    assert bound == 1_271_040
    for seed in range(5):
        oracle = CompressionOracle(16, 24, seed=7000 + seed)
        mc, report = generalized_attack(oracle, mirror_schedule(), 2, 16, 2)
        assert report.l == 993
        assert report.verify_ok
        assert report.attack_queries <= bound
        assert len(set(mc.messages())) == 4
    started = time.time()
    oracle = CompressionOracle(8, 16, seed=7100)
    mc, report = generalized_attack(oracle, mirror_schedule(), 2, 8, 2)
    small_elapsed = time.time() - started
    assert report.l == 241
    assert report.verify_ok
    assert small_elapsed < 300
    _passed("7", f"5/5 runs under the {bound}-query bound; n=8 run took "
                 f"{small_elapsed:.2f}s")


def test_criterion_08_birthday_baseline():
    costs = []
    for seed in range(50):
        oracle = CompressionOracle(16, 24, seed=8000 + seed)
        _, queries = birthday_search(oracle, 0, 2)
        costs.append(queries)
    median = statistics.median(costs)
    assert 200 <= median <= 600

    harder = 0
    for seed in range(50):
        two = CompressionOracle(8, 16, seed=8100 + seed)
        cost_two = birthday_search(two, 0, 2)[1]
        three = CompressionOracle(8, 16, seed=8100 + seed)
        cost_three = birthday_search(three, 0, 3)[1]
        harder += cost_three > cost_two
    assert harder >= 45
    _passed("8", f"median 2-collision cost {median}; 3-collision costlier in "
                 f"{harder}/50 paired trials")


def _structure_mutations(w, cert, m):
    fresh = max(w) + 100
    yield StructureCertificate((fresh,) + cert.subalphabet[1:], cert.p, cert.splits), m
    yield StructureCertificate(cert.subalphabet[:-1], cert.p, cert.splits), m
    yield StructureCertificate((cert.subalphabet[0],) + cert.subalphabet[:-1],
                               cert.p, cert.splits), m
    yield StructureCertificate(cert.subalphabet, cert.p + 1, cert.splits), m
    yield StructureCertificate(cert.subalphabet, cert.p, cert.splits + (len(w),)), m


def _attack_mutations(w, cert):
    fresh = max(w) + 100
    yield AttackCertificate((fresh,) + cert.subalphabet[1:], cert.p, cert.splits,
                            cert.n, cert.k)
    yield AttackCertificate(cert.subalphabet[:-1], cert.p, cert.splits,
                            cert.n, cert.k)
    yield AttackCertificate(cert.subalphabet, cert.p + 1, cert.splits,
                            cert.n, cert.k)
    yield AttackCertificate(cert.subalphabet, cert.p, (0,) + cert.splits[1:],
                            cert.n, cert.k)
    yield AttackCertificate((cert.subalphabet[0],) + cert.subalphabet[:-1],
                            cert.p, cert.splits, cert.n, cert.k)


def _nesting_mutations(perms, subset):
    # each mutant is invalid by construction: B must be |B| distinct letters
    # of the alphabet
    fresh = max(perms[0]) + 100
    yield (fresh,) + subset[1:]
    yield subset[:-1]
    yield subset + subset[:1]


def _multicollision_mutations(mc):
    g0 = mc.groups[0]
    flipped = tuple(b ^ 0x5A5A for b in g0.choices[0])
    yield MulticollisionSet(mc.length,
                            (CollisionGroup(g0.positions, (flipped, g0.choices[1])),)
                            + mc.groups[1:], mc.base_blocks, mc.r)
    yield MulticollisionSet(mc.length,
                            (CollisionGroup(g0.positions, (g0.choices[0],
                                                           g0.choices[0])),)
                            + mc.groups[1:], mc.base_blocks, mc.r)
    yield MulticollisionSet(mc.length, mc.groups, mc.base_blocks, mc.r + 1)
    yield MulticollisionSet(mc.length, mc.groups + (g0,), mc.base_blocks, mc.r)
    if mc.base_blocks:
        pos = min(mc.base_blocks)
        tweaked = dict(mc.base_blocks)
        tweaked[pos] ^= 0x3C3C
        yield MulticollisionSet(mc.length, mc.groups, tweaked, mc.r)
    else:
        # point two groups at the same position
        stolen = CollisionGroup(mc.groups[1].positions, g0.choices)
        yield MulticollisionSet(mc.length, (stolen,) + mc.groups[1:],
                                mc.base_blocks, mc.r)


def test_criterion_09_mutation_robustness():
    rng = random.Random(99099)
    rejected = 0
    attempted = 0

    # structure certificates over random certified words
    while attempted < 40:
        w = random_bounded_word(rng, rng.randint(3, 6), 2)
        m = rng.randint(2, 3)
        found = find_structure(w, m, 2).certificate
        if found is None:
            continue
        for mutant, mm in _structure_mutations(w, found, m):
            attempted += 1
            rejected += not verify_structure(w, mutant, mm)

    # attack certificates on boundary-size two-permutation words
    while attempted < 70:
        n = rng.choice((2, 4))
        size = (2 * n) ** 2 - 2 * n + 1
        alpha = random_two_permutation_word(rng, size)
        cert = find_attack_structure(alpha, n, 2, 2)
        for mutant in _attack_mutations(alpha, cert):
            attempted += 1
            rejected += not verify_attack_structure(alpha, mutant)

    # nesting certificates
    while attempted < 85:
        d = random_divisor_chain(rng, 6, 1)
        size = d[0] * d[1] * d[1]
        perms = random_permutations_of(rng, size, 2)
        subset = factorization_subset(perms, d)
        for mutant in _nesting_mutations(perms, subset):
            attempted += 1
            rejected += not verify_nesting(perms, d, mutant)

    # multicollisions
    while attempted < 100:
        oracle = CompressionOracle(16, 24, seed=rng.randrange(1 << 30))
        mc, report = joux_attack(oracle, 0, 3)
        assert report.verify_ok
        for mutant in _multicollision_mutations(mc):
            attempted += 1
            rejected += bool(not verify_multicollision(
                oracle.clone(), identity_schedule(), 0, mutant))

    assert attempted >= 100
    assert rejected == attempted
    _passed("9", f"{rejected}/{attempted} single-field mutations rejected")


def test_criterion_10_cli_determinism(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("1 2 3 4 2 1 4 3\n")
    mc_path = tmp_path / "mc.json"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"A": [1, 2], "p": 2, "splits": [4]}))

    cases = [
        (["classics", "cadence", "--s", "2", "--input", str(words)], None),
        (["classics", "ndiv", "--n", "2", "--input", str(words)], None),
        (["regularity", "find", "--m", "2", "--q", "2", "--input", str(words)], None),
        (["regularity", "witness", "--m", "3"], None),
        (["regularity", "compute-n", "--m", "2", "--q", "2", "--cap", "3"], None),
        (["nesting", "attack-structure", "--n", "2", "--k", "2", "--q", "2",
          "--input", str(words)], None),
        (["hashsim", "birthday", "--n", "8", "--m", "16", "--k", "2",
          "--trials", "4", "--seed", "13"], None),
        (["attack", "joux", "--n", "16", "--m", "24", "--r", "4", "--trials", "3",
          "--seed", "7"], None),
        (["attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2",
          "--schedule", "mirror", "--seed", "21", "--mc-out", str(mc_path)], None),
        (["verify", "cert", "--word", str(words), "--cert", str(cert_path)], None),
    ]
    for args, stdin_text in cases:
        first = subprocess.run(CLI + args, input=stdin_text, capture_output=True,
                               text=True)
        second = subprocess.run(CLI + args, input=stdin_text, capture_output=True,
                                text=True)
        assert first.returncode == second.returncode == 0, (args, first.stderr)
        a = json.loads(first.stdout)
        b = json.loads(second.stdout)
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), args

    # collision verification over the file the attack just wrote
    for _ in range(2):
        proc = subprocess.run(CLI + ["verify", "collision", "--mc", str(mc_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["ok"] is True
    _passed("10", f"{len(cases) + 1} subcommands byte-identical modulo timing")
