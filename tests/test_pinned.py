"""Seeded outputs pinned by SHA-256 digest.

The determinism tests compare two runs of one checkout, so they cannot see
a change that moves every seeded output the same way.  These digests were
taken from the code before the attack engine was unified; a change that
alters seeded blocks, query counts or report fields on purpose must say so
and update them.
"""

import hashlib
import json
import random

from gihflab.attacks import generalized_attack, joux_attack
from gihflab.hashsim import CompressionOracle, identity_schedule, schedule_from_words
from gihflab.nesting import attack_threshold

from test_cli import body_without_timing, run_cli


def sha256(text) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _two_permutation_schedule(n, r, seed):
    length = attack_threshold(n, r, 2)
    rng = random.Random(seed)
    first = list(range(1, length + 1))
    second = first[:]
    rng.shuffle(first)
    rng.shuffle(second)
    return schedule_from_words([()] * (length - 1) + [tuple(first + second)])


def _library_runs():
    for n, m in ((8, 16), (16, 24)):
        for r in (1, 3, 4):
            yield joux_attack(CompressionOracle(n, m, seed=40 + r), 0, r)
    yield generalized_attack(CompressionOracle(8, 16, seed=41), identity_schedule(), 1, 8, 3)
    yield generalized_attack(CompressionOracle(4, 8, seed=42),
                             _two_permutation_schedule(4, 2, 43), 2, 4, 2, h0=5)


def test_library_outputs_pinned():
    runs = [[mc.to_dict(), report.to_dict()] for mc, report in _library_runs()]
    assert sha256(json.dumps(runs, sort_keys=True)) == (
        "1127565f0e67a4f1360e5f5c7b1e1407e0018ff21af92fa78ee3face8417ecc5")


def test_cli_outputs_pinned(tmp_path):
    joux = run_cli("attack", "joux", "--n", "16", "--m", "24", "--r", "4",
                   "--trials", "3", "--seed", "7")
    mc = tmp_path / "mc.json"
    gihf = run_cli("attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2",
                   "--schedule", "mirror", "--seed", "9", "--mc-out", str(mc))
    assert sha256(body_without_timing(joux.stdout)) == (
        "52391c49b5ee56bdba08cbc624004ebbd124049c84f3438d73361066ca4a66bf")
    assert sha256(body_without_timing(gihf.stdout)) == (
        "61924b8c253e534cf8df07e84f5f82a46ad4b7975a974fd8ab8e7c0c46b03708")
    assert sha256(mc.read_bytes()) == (
        "3a36a8b924ff8898dee4bba0243fbc613e769a4e88eaf53b0944cf287d4ae986")
