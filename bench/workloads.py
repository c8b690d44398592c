"""The four benchmark workloads: seeded inputs, the timed op and the check
of every op's output.

A workload hands out its ops in cycles.  Cycle k is a list of ops derived
from (seed, k) alone, and a run measures whole cycles, so every run of a
workload sees the same mix of op kinds.  Only ``run`` is timed: inputs are
made before a cycle starts and ``check`` runs after the timed loop.

``check`` returns None for a correct output and a short reason otherwise.
Ops marked ``hostile`` feed the verifier a damaged file; the expected
outcome is a rejection with exit code 1.
"""

from __future__ import annotations

import contextlib
import copy
import importlib.util
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from gihflab import attacks, cli, hashsim, nesting, regularity

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    hostile: bool = False


def _rng(*tags) -> random.Random:
    return random.Random(":".join(str(tag) for tag in tags))


def _two_permutations(rng: random.Random, size: int) -> tuple:
    """A 2-bounded word: two shuffled permutations of 1..size."""
    first = list(range(1, size + 1))
    second = first[:]
    rng.shuffle(first)
    rng.shuffle(second)
    return tuple(first + second)


def _file_schedule(word: tuple, length: int) -> hashsim.Schedule:
    """Schedule serving `word` for messages of `length` blocks, built the way
    ``gihflab verify collision`` builds it."""
    return hashsim.schedule_from_words([()] * (length - 1) + [word], "file")


def _check_attack(mc, report, fresh_oracle, sched, *, joux: bool) -> Optional[str]:
    """Checks shared by both attacks.  Joux stages cover all of its queries;
    the q=2 attack also spends queries walking filler blocks between stages,
    which belong to a level but to no stage, so there the stage sum is only
    bounded by the total.  The q=1 bound is the expected-cost figure
    a~ * r * 2^(n/2), which a single Joux op exceeds about once in 75 seeds:
    it is reported as attacks.bound_ratio instead of checked per op."""
    if not report.verify_ok:
        return "attack reports a failed verification"
    outcome = attacks.verify_multicollision(fresh_oracle, sched, report.h0, mc)
    if not (outcome.ok and outcome.complete and outcome.checked == 2 ** report.r):
        return "multicollision fails re-verification on a fresh oracle"
    stages = sum(report.stage_queries)
    if stages > report.attack_queries or (joux and stages != report.attack_queries):
        return "stage queries do not reconcile with attack queries"
    if sum(report.level_queries) != report.attack_queries:
        return "level queries do not sum to attack queries"
    if report.raw_calls < report.attack_queries:
        return "fewer raw calls than distinct queries"
    if not joux and report.attack_queries > report.bound:
        return "attack queries exceed the closed-form bound"
    return None


class GihfQ2:
    """generalized_attack at q=2 on a fresh two-permutation schedule word
    and a fresh oracle seed per op (n=16, m=24, r=2, so l=993)."""

    name = "gihf_q2"
    FULL = {"n": 16, "m": 24, "r": 2}
    TINY = {"n": 4, "m": 8, "r": 2}
    tail_pct = 75.0
    trace_cycles_per_s = 0.3
    setup_reps = 5

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.n, self.m, self.r = sizes["n"], sizes["m"], sizes["r"]
        self.length = nesting.attack_threshold(self.n, self.r, 2)

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def cycle(self, k: int) -> list:
        rng = _rng(self.seed, self.name, k)
        return [Op("attack", (_two_permutations(rng, self.length), rng.getrandbits(32)))]

    def run(self, op: Op):
        word, oracle_seed = op.args
        oracle = hashsim.CompressionOracle(self.n, self.m, oracle_seed)
        return attacks.generalized_attack(oracle, _file_schedule(word, self.length), 2, self.n, self.r)

    def check(self, op: Op, output) -> Optional[str]:
        word, oracle_seed = op.args
        mc, report = output
        fresh = hashsim.CompressionOracle(self.n, self.m, oracle_seed)
        return _check_attack(mc, report, fresh, _file_schedule(word, self.length), joux=False)


class JouxN24:
    """joux_attack building a 2^8-collision at n=24, m=32 on a fresh oracle
    seed per op."""

    name = "joux_n24"
    FULL = {"n": 24, "m": 32, "r": 8}
    TINY = {"n": 8, "m": 12, "r": 4}
    tail_pct = 75.0
    trace_cycles_per_s = 2.5
    setup_reps = 21

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.n, self.m, self.r = sizes["n"], sizes["m"], sizes["r"]

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def cycle(self, k: int) -> list:
        return [Op("attack", (_rng(self.seed, self.name, k).getrandbits(32),))]

    def run(self, op: Op):
        oracle = hashsim.CompressionOracle(self.n, self.m, op.args[0])
        return attacks.joux_attack(oracle, 0, self.r)

    def check(self, op: Op, output) -> Optional[str]:
        mc, report = output
        fresh = hashsim.CompressionOracle(self.n, self.m, op.args[0])
        return _check_attack(mc, report, fresh, hashsim.identity_schedule(), joux=True)


def _digests(payload: dict) -> list:
    """Digest of every expanded message, hashed block by block along alpha
    without going through the verifier under test."""
    mc = attacks.MulticollisionSet.from_dict(payload["multicollision"])
    oracle = hashsim.CompressionOracle(payload["n"], payload["m"], payload["oracle_seed"])
    out = []
    for message in mc.messages():
        state = payload["h0"]
        for position in payload["alpha"]:
            state = oracle.compress(state, message[position - 1])
        out.append(state)
    return out


class VerifyCli:
    """In-process ``gihflab verify collision|cert`` calls on artifacts built
    at set-up: a genuine Joux 2^16-collision at n=16, a genuine q=2
    multicollision at n=16 (l=993), an attack and a structure certificate
    for its schedule word, and three hostile variants of the q=2 file."""

    name = "verify_cli"
    FULL = {"joux_n": 16, "joux_m": 24, "joux_r": 16, "gihf_n": 16, "gihf_m": 24, "gihf_r": 2}
    TINY = {"joux_n": 8, "joux_m": 12, "joux_r": 6, "gihf_n": 4, "gihf_m": 8, "gihf_r": 2}
    # 14 ops, 8 of them Joux checks: the median and the 60th percentile both
    # fall among the Joux checks, whose time is steadier from run to run on a
    # shared host than that of the ~10 ms ops.
    CYCLE = ("gihf", "joux", "cert_attack", "joux", "flipped_block", "joux",
             "forged_word", "joux", "cert_structure", "joux", "out_of_range_block",
             "joux", "joux", "joux")
    HOSTILE = frozenset({"flipped_block", "forged_word", "out_of_range_block"})
    tail_pct = 60.0
    trace_cycles_per_s = 0.04
    setup_reps = 5

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.dir: Optional[Path] = None
        self.argv: dict = {}
        self.expected_checked: dict = {}

    def prepare(self) -> None:
        s = self.sizes
        rng = _rng(self.seed, self.name, "artifacts")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir))

        paths = {key: self.dir / f"{key}.json" for key in
                 ("joux", "gihf", "attack_cert", "structure_cert") + tuple(self.HOSTILE)}
        oracle = hashsim.CompressionOracle(s["joux_n"], s["joux_m"], rng.getrandbits(32))
        mc, report = attacks.joux_attack(oracle, 0, s["joux_r"], expansion_cap=1)
        cli._write_mc(str(paths["joux"]), mc, report, hashsim.identity_schedule())

        length = nesting.attack_threshold(s["gihf_n"], s["gihf_r"], 2)
        word = _two_permutations(rng, length)
        oracle = hashsim.CompressionOracle(s["gihf_n"], s["gihf_m"], rng.getrandbits(32))
        sched = _file_schedule(word, length)
        mc, report = attacks.generalized_attack(oracle, sched, 2, s["gihf_n"], s["gihf_r"])
        cli._write_mc(str(paths["gihf"]), mc, report, sched)
        gihf = json.loads(paths["gihf"].read_text(encoding="utf-8"))

        # The word is two permutations of 1..l, so cutting it at l turns any
        # n*r letters into a valid p=2 attack (and structure) certificate;
        # the attack's own letters are used.
        attacked = {pos for group in mc.groups for pos in group.positions}
        letters = [a for a in dict.fromkeys(word) if a in attacked]
        attack_cert = {"B": letters, "p": 2, "splits": [length],
                       "n": s["gihf_n"], "k": s["gihf_r"]}
        structure_cert = {"A": letters, "p": 2, "splits": [length]}

        base = [pos for pos, _ in gihf["multicollision"]["base_blocks"]]
        forged = copy.deepcopy(gihf)
        forged["alpha"] = [rng.choice(base)]
        out_of_range = copy.deepcopy(gihf)
        entry = out_of_range["multicollision"]["base_blocks"][rng.randrange(len(base))]
        entry[1] = (1 << s["gihf_m"]) + rng.randrange(1 << s["gihf_m"])
        flipped = self._flipped(gihf, rng)

        for key, payload in (("flipped_block", flipped), ("forged_word", forged),
                             ("out_of_range_block", out_of_range),
                             ("attack_cert", attack_cert), ("structure_cert", structure_cert)):
            paths[key].write_text(json.dumps(payload), encoding="utf-8")
        paths["word"] = self.dir / "word.txt"
        paths["word"].write_text(" ".join(map(str, word)) + "\n", encoding="utf-8")

        collision = ("verify", "collision", "--mc")
        self.argv = {kind: collision + (str(paths[kind]),)
                     for kind in ("joux", "gihf") + tuple(self.HOSTILE)}
        self.argv["cert_attack"] = ("verify", "cert", "--word", str(paths["word"]),
                                    "--cert", str(paths["attack_cert"]))
        self.argv["cert_structure"] = ("verify", "cert", "--word", str(paths["word"]),
                                       "--cert", str(paths["structure_cert"]),
                                       "--m", str(len(letters)))
        self.expected_checked = {"joux": 2 ** s["joux_r"], "gihf": 2 ** s["gihf_r"]}

    @staticmethod
    def _flipped(payload: dict, rng: random.Random) -> dict:
        """Copy of `payload` with one bit of one group choice block flipped,
        redrawn until the expansion really stops colliding."""
        m = payload["m"]
        while True:
            hostile = copy.deepcopy(payload)
            group = rng.choice(hostile["multicollision"]["groups"])
            choice = rng.choice(group["choices"])
            slot = rng.randrange(len(choice))
            choice[slot] ^= 1 << rng.randrange(m)
            if len(set(_digests(hostile))) > 1:
                return hostile

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def cycle(self, k: int) -> list:
        return [Op(kind, self.argv[kind], kind in self.HOSTILE) for kind in self.CYCLE]

    def run(self, op: Op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(op.args))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the CLI must not raise: record it as the op's outcome
                code = f"raised {type(exc).__name__}"
        return code, out.getvalue()

    def check(self, op: Op, output) -> Optional[str]:
        code, report = output
        expected = 1 if op.hostile else 0
        if code != expected:
            return f"{op.kind}: exit {code}, expected {expected}"
        if op.hostile:
            return None
        result = json.loads(report)["result"]
        if result.get("ok") is not True:
            return f"{op.kind}: report is not ok"
        if op.kind in self.expected_checked and not (
                result["complete"] and result["checked"] == self.expected_checked[op.kind]):
            return f"{op.kind}: verification incomplete"
        return None


def _load_brute_force():
    """brute_force_structure from the test suite's independent references."""
    path = ROOT / "tests" / "support.py"
    spec = importlib.util.spec_from_file_location("gihflab_test_support", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_force_structure


def _canonical_bounded_word(rng: random.Random, letters: int, q: int) -> tuple:
    """Random q-bounded word over exactly `letters` letters, renamed 1, 2, ...
    by first occurrence."""
    pool = [a for a in range(1, letters + 1) for _ in range(rng.randint(1, q))]
    rng.shuffle(pool)
    names: dict = {}
    return tuple(names.setdefault(a, len(names) + 1) for a in pool)


class BoundaryScan:
    """Exhaustive find_structure(w, 3, 2) decisions on random canonical
    2-bounded words over exactly 7 letters (always certified, since
    N(3,2) = 7), interleaved with exhaustive refusals of relabelled
    extremal_witness(6) words."""

    name = "boundary_scan"
    FULL = {"letters": 7, "m": 3, "q": 2, "witness_m": 6, "words_per_witness": 500,
            "brute_every": 25}
    TINY = {"letters": 7, "m": 3, "q": 2, "witness_m": 4, "words_per_witness": 5,
            "brute_every": 2}
    tail_pct = 99.9
    trace_cycles_per_s = 4.0
    setup_reps = 51

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.witness: tuple = ()
        self.brute_force = None

    def prepare(self) -> None:
        self.witness = regularity.extremal_witness(self.sizes["witness_m"])
        self.brute_force = _load_brute_force()

    def close(self) -> None:
        pass

    def cycle(self, k: int) -> list:
        s = self.sizes
        rng = _rng(self.seed, self.name, k)
        letters = sorted(set(self.witness))
        names = dict(zip(letters, rng.sample(range(1, 4 * len(letters) + 1), len(letters))))
        ops = [Op("witness", (tuple(names[a] for a in self.witness), s["witness_m"], False))]
        for _ in range(s["words_per_witness"]):
            word = _canonical_bounded_word(rng, s["letters"], s["q"])
            ops.append(Op("word", (word, s["m"], rng.randrange(s["brute_every"]) == 0)))
        return ops

    def run(self, op: Op):
        word, m, _ = op.args
        return regularity.find_structure(word, m, self.sizes["q"])

    def check(self, op: Op, outcome) -> Optional[str]:
        word, m, cross_check = op.args
        if op.kind == "witness":
            if outcome.certificate is not None or not outcome.exhaustive:
                return "witness not refused exhaustively"
            return None
        if outcome.certificate is None:
            return f"{self.sizes['letters']}-letter word refused"
        if not regularity.verify_structure(word, outcome.certificate, m):
            return "certificate fails verify_structure"
        if cross_check and self.brute_force(word, m, self.sizes["q"]) is None:
            return "brute force finds no certificate"
        return None


WORKLOADS = {cls.name: cls for cls in (GihfQ2, JouxN24, VerifyCli, BoundaryScan)}
