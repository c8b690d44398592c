"""Seeded outputs pinned by SHA-256 digest.

The determinism tests compare two runs of one checkout, so they cannot see
a change that moves every seeded output the same way.  These digests were
taken once the first attack level searched its pairs with the same table
search as every later level; a change that alters seeded blocks, query
counts or report fields on purpose must say so and update them.
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
        "977d5fbd0adb9a0a0d93587b276b3980bdbaa51b76990379c4afd3b2119c0f05")


def test_cli_outputs_pinned(tmp_path):
    joux = run_cli("attack", "joux", "--n", "16", "--m", "24", "--r", "4",
                   "--trials", "3", "--seed", "7")
    mc = tmp_path / "mc.json"
    gihf = run_cli("attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2",
                   "--schedule", "mirror", "--seed", "9", "--mc-out", str(mc))
    assert sha256(body_without_timing(joux.stdout)) == (
        "4a29e29efad625c908e1c701b29b2a19a500f37db631f03616451b48c3592e49")
    assert sha256(body_without_timing(gihf.stdout)) == (
        "e3decf0b3df87620f04a48a1aa0b9f2648d53a0ece715c7e1c23171c6fc3e86f")
    assert sha256(mc.read_bytes()) == (
        "a6843b7cd3f6e5edd6c684e857d132a3de3725287d72aa3c9357d95bcba8d443")
