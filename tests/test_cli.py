import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from gihflab import cli
from gihflab.attacks import generalized_attack, joux_attack, verify_multicollision
from gihflab.hashsim import CompressionOracle, identity_schedule, mirror_schedule
from gihflab.regularity import canonical_bounded_words, find_structure
from gihflab.words import format_words

from support import admissible_splits, brute_force_structure, random_two_permutation_word

CLI = [sys.executable, "-m", "gihflab.cli"]

# the config keys of each subcommand's successful report; main builds a
# rejected run's config by the same rule, so it has the same keys
CONFIG_KEYS = {
    "classics cadence": {"s", "input"},
    "classics ndiv": {"n", "input"},
    "regularity find": {"m", "q", "input"},
    "regularity witness": {"m", "out"},
    "regularity compute-n": {"m", "q", "cap"},
    "nesting attack-structure": {"n", "k", "q", "input"},
    "hashsim birthday": {"n", "m", "k", "trials", "seed", "h0"},
    "attack joux": {"n", "m", "r", "trials", "seed", "h0"},
    "attack gihf": {"n", "m", "q", "r", "schedule", "seed", "h0"},
    "verify cert": {"word", "cert", "m"},
    "verify collision": {"mc", "cap"},
}


@pytest.mark.parametrize("command", ["hashsim birthday", "attack joux", "attack gihf"])
def test_help_lists_shared_oracle_options_once(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.partition("options:")[2]
    listed = [line.split()[0] for line in options.splitlines() if line.strip()]
    for option in ("--n", "--m", "--h0", "--seed"):
        assert listed.count(option) == 1, (option, listed)


def run_cli(*args, stdin_text=None, env_extra=None, check=True):
    env = dict(os.environ)
    env.pop("GIHFLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        CLI + list(args), input=stdin_text, capture_output=True, text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}\n{proc.stdout}")
    return proc


def report_of(proc) -> dict:
    """The report on stdout, whose config must hold exactly its
    subcommand's keys, whether the run was accepted or rejected."""
    report = json.loads(proc.stdout)
    assert set(report["config"]) == CONFIG_KEYS[report["command"]]
    return report


def body_without_timing(stdout: str) -> str:
    data = json.loads(stdout)
    data.pop("timing")
    return json.dumps(data, sort_keys=True)


class TestClassicsCommands:
    def test_cadence(self, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("1 2 3 1 2 3 1 2 3\n1 2 3 4\n")
        proc = run_cli("classics", "cadence", "--s", "3", "--input", str(words))
        results = report_of(proc)["result"]["results"]
        assert results[0] == {"found": True, "positions": [1, 4, 7], "difference": 3}
        assert results[1] == {"found": False}

    def test_cadence_from_stdin(self):
        proc = run_cli("classics", "cadence", "--s", "2", stdin_text="7 7\n")
        assert report_of(proc)["result"]["results"][0]["found"]

    def test_ndiv(self, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("1 2\n1 1\n")
        proc = run_cli("classics", "ndiv", "--n", "2", "--input", str(words))
        results = report_of(proc)["result"]["results"]
        assert results[0]["found"] and results[0]["factors"] == [[1], [2]]
        assert not results[1]["found"]


class TestRegularityCommands:
    def test_witness_word_file(self, tmp_path):
        out = tmp_path / "witness.txt"
        proc = run_cli("regularity", "witness", "--m", "3", "--out", str(out))
        result = report_of(proc)["result"]
        assert result["length"] == 10 and result["alphabet_size"] == 6
        assert out.read_text().strip().split() == [str(s) for s in result["word"]]

    def test_compute_n(self):
        proc = run_cli("regularity", "compute-n", "--m", "2", "--q", "2", "--cap", "4")
        result = report_of(proc)["result"]
        assert result["N"] == 3
        assert result["exhaustive"] is True
        # each size's counts sum to the admissible splits up to each
        # checked word's brute-force find, or all of them for the violator
        for size in result["sizes"]:
            words = list(canonical_bounded_words(size["alphabet_size"], 2))
            examined = 0
            for w in words[:size["words_checked"]]:
                splits = admissible_splits(len(w), 2, 2) if len(set(w)) >= 2 else []
                brute = brute_force_structure(w, 2, 2)
                examined += len(splits) if brute is None else splits.index(brute.splits) + 1
            decided = size["decided"]
            assert sum(decided.values()) == examined, size
            found = size["words_checked"] - (size["violator"] is not None)
            assert decided.get("certificate", 0) == found, size
        assert [size["decided"] for size in result["sizes"]] == [
            {}, {"certificate": 3, "degree": 1}, {"certificate": 37, "degree": 8}]

    def test_find_has_no_mode_option(self):
        proc = run_cli("regularity", "find", "--m", "2", "--q", "2",
                       "--mode", "greedy", stdin_text="1 2 1 2\n", check=False)
        assert proc.returncode == 2

    def test_find_at_huge_q_examines_only_the_word(self, tmp_path, capsys):
        # a word of 4 letters has at most 4 nonempty parts, whatever q is
        words = tmp_path / "words.txt"
        words.write_text("1 2 1 2\n")
        started = time.perf_counter()
        code = cli.main(["regularity", "find", "--m", "2", "--q", "10000000",
                         "--input", str(words)])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["results"] == [
            {"A": [1, 2], "found": True, "p": 2, "splits": [2],
             "decided": {"degree": 1, "certificate": 1}}]
        assert elapsed < 0.5

    def test_find_counts_each_kind_of_decision(self, tmp_path):
        # p = 1 is refused by conflict degree; (32,) holds the certificate
        words = tmp_path / "words.txt"
        words.write_text(format_words([random_two_permutation_word(random.Random(3), 993)]))
        proc = run_cli("regularity", "find", "--m", "32", "--q", "2", "--input", str(words))
        (found,) = report_of(proc)["result"]["results"]
        assert found["splits"] == [32]
        assert found["decided"] == {"certificate": 1, "degree": 1}

    def test_find_and_verify_cert_round_trip(self, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("1 2 3 1 2 3\n")
        proc = run_cli("regularity", "find", "--m", "3", "--q", "2",
                       "--input", str(words))
        found = report_of(proc)["result"]["results"][0]
        assert found["found"] and found["A"] == [1, 2, 3] and found["p"] == 2

        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({k: found[k] for k in ("A", "p", "splits")}))
        verify = run_cli("verify", "cert", "--word", str(words), "--cert", str(cert))
        assert report_of(verify)["result"] == {"kind": "structure", "ok": True}

        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({"A": [1, 2], "p": 1, "splits": []}))
        proc = run_cli("verify", "cert", "--word", str(words), "--cert", str(broken),
                       check=False)
        assert proc.returncode == 1


class TestNestingCommand:
    def test_attack_structure_and_verify(self, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("1 2 3 4 2 1 4 3\n")
        proc = run_cli("nesting", "attack-structure", "--n", "2", "--k", "2",
                       "--q", "2", "--input", str(words))
        cert = report_of(proc)["result"]
        assert cert["p"] == 2 and len(cert["B"]) == 4

        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(cert))
        verify = run_cli("verify", "cert", "--word", str(words),
                         "--cert", str(cert_file))
        assert report_of(verify)["result"] == {"kind": "attack", "ok": True}

    @pytest.mark.parametrize("word,cert", [
        ("1 2\n", {"B": [1, 2], "p": 1, "splits": [], "n": 0, "k": 2}),
        ("1 2 1 2\n", {"B": [1, 2], "p": 2, "splits": [2], "n": -2, "k": -1}),
    ], ids=["n-0", "k-minus-1"])
    def test_verify_rejects_nonpositive_n_or_k(self, tmp_path, word, cert):
        # |B| = n^(p-1) * k holds for both; the verifier reads n and k from
        # the file, so only their sign check refuses them
        (tmp_path / "w.txt").write_text(word)
        (tmp_path / "c.json").write_text(json.dumps(cert))
        proc = run_cli("verify", "cert", "--word", str(tmp_path / "w.txt"),
                       "--cert", str(tmp_path / "c.json"), check=False)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        assert report_of(proc)["result"] == {"kind": "attack", "ok": False}


class TestHashsimCommand:
    def test_birthday_report(self):
        proc = run_cli("hashsim", "birthday", "--n", "8", "--m", "16",
                       "--k", "2", "--trials", "5", "--seed", "3")
        result = report_of(proc)["result"]
        assert len(result["trials"]) == 5
        assert result["median_queries"] > 0

    def test_seed_required_without_env(self):
        proc = run_cli("hashsim", "birthday", "--n", "8", "--m", "16", check=False)
        assert proc.returncode == 2

    def test_seed_from_environment(self):
        proc = run_cli("hashsim", "birthday", "--n", "8", "--m", "16",
                       "--trials", "1", env_extra={"GIHFLAB_SEED": "11"})
        assert report_of(proc)["config"]["seed"] == 11


class TestAttackCommands:
    def test_joux_verified(self):
        proc = run_cli("attack", "joux", "--n", "8", "--m", "16", "--r", "3",
                       "--trials", "2", "--seed", "5")
        result = report_of(proc)["result"]
        assert result["all_verified"] is True
        assert len(result["trials"]) == 2

    def test_gihf_with_collision_round_trip(self, tmp_path):
        mc = tmp_path / "mc.json"
        proc = run_cli("attack", "gihf", "--n", "8", "--m", "16", "--q", "2",
                       "--r", "2", "--schedule", "mirror", "--seed", "5",
                       "--mc-out", str(mc))
        result = report_of(proc)["result"]
        assert result["verify_ok"] is True
        assert result["l"] == 241
        assert result["attack_queries"] <= result["bound"]

        verify = run_cli("verify", "collision", "--mc", str(mc))
        assert report_of(verify)["result"]["ok"] is True

        # corrupt one choice block and expect rejection with exit code 1
        data = json.loads(mc.read_text())
        data["multicollision"]["groups"][0]["choices"][0][0] ^= 0xFFFF
        mc.write_text(json.dumps(data))
        proc = run_cli("verify", "collision", "--mc", str(mc), check=False)
        assert proc.returncode == 1
        assert report_of(proc)["result"]["ok"] is False

    def test_file_schedule_judged_by_the_attacked_word(self, tmp_path):
        # the length-1 word is 3-bounded, but a q=2 attack reads only the
        # 2-bounded word of the length it attacks, l = 241
        words = [(1, 1, 1)] + [()] * 239 + [random_two_permutation_word(random.Random(18), 241)]
        schedule = tmp_path / "schedule.txt"
        schedule.write_text(format_words(words))
        proc = run_cli("attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2",
                       "--schedule", "file", "--schedule-file", str(schedule), "--seed", "5")
        result = report_of(proc)["result"]
        assert result["l"] == 241 and result["verify_ok"] is True

    def test_verify_collision_counts_no_word(self, tmp_path, monkeypatch, capsys):
        # the verifier checks coverage only; find_structure, the one reader
        # of q-boundedness, is never called
        mc = tmp_path / "mc.json"
        assert cli.main(["attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2",
                         "--schedule", "mirror", "--seed", "5", "--mc-out", str(mc)]) == 0
        capsys.readouterr()
        calls = []

        def counted(w, *args, search=find_structure):
            calls.append(w)
            return search(w, *args)

        readers = [module for module in list(sys.modules.values())
                   if vars(module).get("find_structure") is find_structure]
        assert cli in readers
        for module in readers:
            monkeypatch.setattr(module, "find_structure", counted)
        assert cli.main(["verify", "collision", "--mc", str(mc)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["ok"] is True
        assert calls == []

    def test_joux_above_two_to_the_16_checked_in_full(self, tmp_path):
        mc = tmp_path / "mc.json"
        run_cli("attack", "joux", "--n", "8", "--m", "16", "--r", "20", "--seed", "5",
                "--mc-out", str(mc))
        result = report_of(run_cli("verify", "collision", "--mc", str(mc)))["result"]
        assert result["ok"] is True and result["complete"] is True
        assert result["checked"] == 2 ** 20

    def test_usage_error_exit_code(self):
        proc = run_cli("attack", "joux", "--n", "8", check=False)
        assert proc.returncode == 2
        proc = run_cli("attack", "joux", "--n", "8", "--m", "16", "--r", "1",
                       "--seed", "1", "--bogus-flag", check=False)
        assert proc.returncode == 2


class TestDeterminism:
    CASES = [
        ("classics cadence", ["classics", "cadence", "--s", "2"], "1 2 1\n", 0),
        ("regularity find", ["regularity", "find", "--m", "2", "--q", "2"], "1 2 1 2\n", 0),
        ("regularity find rejected",
         ["regularity", "find", "--m", "0", "--q", "2"], "1 2 1 2\n", 1),
        ("regularity witness", ["regularity", "witness", "--m", "4"], None, 0),
        ("regularity compute-n",
         ["regularity", "compute-n", "--m", "2", "--q", "2", "--cap", "3"], None, 0),
        ("hashsim birthday",
         ["hashsim", "birthday", "--n", "8", "--m", "16", "--trials", "3",
          "--seed", "7"], None, 0),
        ("attack joux",
         ["attack", "joux", "--n", "16", "--m", "24", "--r", "4", "--trials", "3",
          "--seed", "7"], None, 0),
        ("attack gihf",
         ["attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2",
          "--schedule", "mirror", "--seed", "9"], None, 0),
    ]

    @pytest.mark.parametrize("name,args,stdin_text,code", CASES,
                             ids=[c[0] for c in CASES])
    def test_reports_are_byte_identical(self, name, args, stdin_text, code):
        first = run_cli(*args, stdin_text=stdin_text, check=False)
        second = run_cli(*args, stdin_text=stdin_text, check=False)
        assert first.returncode == second.returncode == code
        assert body_without_timing(first.stdout) == body_without_timing(second.stdout)


class TestVerifyCollisionHostileFiles:
    """Damaged or malformed collision files are rejected with a report and
    exit code 1, never a traceback."""

    @pytest.fixture(scope="class")
    def genuine(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("mc") / "mc.json"
        mc, report = generalized_attack(CompressionOracle(8, 16, seed=5), mirror_schedule(),
                                        2, 8, 2)
        cli._write_mc(str(path), mc, report, mirror_schedule())
        return json.loads(path.read_text())

    def verify(self, tmp_path, payload):
        path = tmp_path / "hostile.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        proc = run_cli("verify", "collision", "--mc", str(path), check=False)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        result = report_of(proc)["result"]
        assert result["ok"] is False
        return result

    @pytest.mark.parametrize("where", ["base", "group"])
    def test_out_of_range_block(self, tmp_path, genuine, where):
        data = json.loads(json.dumps(genuine))
        mc = data["multicollision"]
        if where == "base":
            mc["base_blocks"][3][1] = (1 << 16) + 9
        else:
            mc["groups"][1]["choices"][0][0] = 1 << 16
        assert "error" not in self.verify(tmp_path, data)

    def test_duplicate_position_in_group(self, tmp_path, genuine):
        data = json.loads(json.dumps(genuine))
        positions = data["multicollision"]["groups"][0]["positions"]
        positions[-1] = positions[0]
        assert self.verify(tmp_path, data) == {
            "ok": False, "complete": True, "checked": 0, "digest": None}

    def test_repeated_base_position(self, tmp_path, genuine):
        # an earlier entry with another block would be dropped silently by
        # a dict that keeps the last one, and the genuine set would verify
        data = json.loads(json.dumps(genuine))
        base = data["multicollision"]["base_blocks"]
        pos, blk = base[3]
        base.insert(3, [pos, blk ^ 1])
        assert self.verify(tmp_path, data)["error"] == (
            "malformed collision file: ValueError: a base position is given twice")

    @pytest.fixture(scope="class")
    def joux(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("joux") / "joux.json"
        mc, report = joux_attack(CompressionOracle(8, 16, seed=5), 0, 3)
        cli._write_mc(str(path), mc, report, identity_schedule())
        return json.loads(path.read_text())

    def test_huge_block_length_verifies_quickly(self, tmp_path, joux):
        # 2^(10^12) would take 125 GB: block ranges are checked by bit length
        path = tmp_path / "huge-m.json"
        path.write_text(json.dumps(dict(joux, m=10 ** 12)))
        started = time.perf_counter()
        proc = run_cli("verify", "collision", "--mc", str(path), check=False)
        assert time.perf_counter() - started < 1
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0 and report_of(proc)["result"]["ok"] is True

    def test_large_block_length_verifies_in_little_memory(self, tmp_path, joux):
        # each 2^(10^8) built would take 12.5 MB
        path = tmp_path / "large-m.json"
        path.write_text(json.dumps(dict(joux, m=10 ** 8)))
        oracle, sched, h0, mc = cli._read_collision(str(path))
        tracemalloc.start()
        try:
            outcome = verify_multicollision(oracle, sched, h0, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.ok and outcome.complete
        assert peak < 1 << 20

    @pytest.mark.parametrize("label", [5, [1]], ids=["number", "list"])
    def test_non_string_schedule_label(self, tmp_path, joux, label):
        # coerced to "5" or "[1]", the label would name no schedule, and the
        # file's own word would pass as a file schedule's word
        assert self.verify(tmp_path, dict(joux, schedule=label))["error"] == (
            "malformed collision file: TypeError: the schedule label must be a "
            f"string, not {type(label).__name__}")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one(self, tmp_path, genuine, cap):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(genuine))
        proc = run_cli("verify", "collision", "--mc", str(path), "--cap", cap, check=False)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        result = report_of(proc)["result"]
        assert result["ok"] is False and "cap" in result["error"]

    def test_word_missing_positions(self, tmp_path, genuine):
        data = dict(genuine, alpha=[genuine["multicollision"]["base_blocks"][0][0]])
        assert "error" not in self.verify(tmp_path, data)

    @pytest.mark.parametrize("path", [
        ("multicollision", "length"), ("multicollision", "r"),
        ("multicollision", "groups", 0, "positions", 0),
        ("multicollision", "groups", 1, "choices", 0, 0),
        ("multicollision", "base_blocks", 2, 0), ("multicollision", "base_blocks", 2, 1),
        ("h0",), ("alpha", 5),
    ], ids=["length", "r", "position", "choice-block", "base-position", "base-block", "h0",
            "alpha"])
    def test_one_non_integer_field(self, tmp_path, genuine, path):
        # whichever field holds it, one non-integer gets the same report
        data = json.loads(json.dumps(genuine))
        *where, last = path
        target = data
        for key in where:
            target = target[key]
        target[last] = 1.5
        assert self.verify(tmp_path, data) == {
            "ok": False,
            "error": "malformed collision file: ValueError: fields must hold integers only"}

    @pytest.mark.parametrize("payload", [
        {"n": 8, "m": 16, "oracle_seed": 1, "h0": 0, "alpha": [1],
         "multicollision": {"length": 1}},
        {"n": 8.5, "m": 16, "oracle_seed": 1, "h0": 0, "alpha": [1],
         "multicollision": {"length": 1, "r": 1, "groups": [], "base_blocks": []}},
        {"n": 80, "m": 96, "oracle_seed": 1, "h0": 0, "alpha": [1],
         "multicollision": {"length": 1, "r": 1, "groups": [], "base_blocks": []}},
        {"n": 8, "m": 16, "oracle_seed": 1, "h0": 0, "alpha": ["1"],
         "multicollision": {"length": 1, "r": 1, "groups": [], "base_blocks": []}},
        {"n": 8, "m": 16, "oracle_seed": 1, "h0": 0, "alpha": [1],
         "multicollision": {"length": 1, "r": 1, "base_blocks": [],
                            "groups": [{"positions": [1], "choices": [["a"], [2]]}]}},
        [1, 2, 3],
        "{not json",
    ], ids=["missing-key", "float-n", "n-above-64", "string-alpha", "string-block",
            "not-an-object", "not-json"])
    def test_malformed_file(self, tmp_path, payload):
        result = self.verify(tmp_path, payload)
        assert result["error"].startswith("malformed collision file")


class TestRejectedInput:
    """Input that a file reader or the library rejects gets a report with an
    `error` and exit 1, never a traceback (usage errors keep exit 2)."""

    ABSENT = "{dir}/absent.json"
    WORD = ["--word", "{dir}/word.txt"]
    WORD6 = ["verify", "cert", "--word", "{dir}/w6.txt", "--cert", "{dir}/c.json"]
    GIHF = ["attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2", "--seed", "1"]
    CASES = [
        ("cadence-order-0", ["classics", "cadence", "--s", "0"], "1 2\n", {}),
        ("cadence-missing-input",
         ["classics", "cadence", "--s", "2", "--input", ABSENT], None, {}),
        ("cadence-non-integer-symbol", ["classics", "cadence", "--s", "2"], "1 x\n", {}),
        ("ndiv-n-1", ["classics", "ndiv", "--n", "1"], "1 2\n", {}),
        ("find-m-0", ["regularity", "find", "--m", "0", "--q", "2"], "1 2 1 2\n", {}),
        ("witness-m-1", ["regularity", "witness", "--m", "1"], None, {}),
        # 1000 * 2001 letters: the first witness past the structure
        # search's cap, refused before it is built
        ("witness-past-search-cap", ["regularity", "witness", "--m", "1001"], None, {}),
        ("compute-n-m-0", ["regularity", "compute-n", "--m", "0", "--q", "2"], None, {}),
        ("attack-structure-below-threshold",
         ["nesting", "attack-structure", "--n", "2", "--k", "2", "--q", "2"], "1 2 1 2\n", {}),
        ("attack-structure-no-word",
         ["nesting", "attack-structure", "--n", "2", "--k", "2", "--q", "2"], "", {}),
        ("birthday-k-1",
         ["hashsim", "birthday", "--n", "8", "--m", "16", "--k", "1", "--seed", "1"], None, {}),
        # m too small for the blocks the searches draw
        ("birthday-block-space-exhausted",
         ["hashsim", "birthday", "--n", "4", "--m", "5", "--k", "100", "--seed", "1"], None, {}),
        ("joux-block-space-exhausted",
         ["attack", "joux", "--n", "2", "--m", "3", "--r", "4", "--seed", "1"], None, {}),
        ("joux-trials-block-space-exhausted",
         ["attack", "joux", "--n", "4", "--m", "5", "--r", "8", "--trials", "20",
          "--seed", "3"], None, {}),
        ("joux-n-80",
         ["attack", "joux", "--n", "80", "--m", "96", "--r", "2", "--seed", "1"], None, {}),
        # the q=3 word would have 256^4 letters; refused before it is built
        ("gihf-q3-oversized-search",
         ["attack", "gihf", "--n", "4", "--m", "8", "--q", "3", "--r", "1",
          "--schedule", "mirror", "--seed", "1"], None, {}),
        ("gihf-schedule-file-not-given", GIHF + ["--schedule", "file"], None, {}),
        ("gihf-mc-out-schedule-file-not-given",
         GIHF + ["--schedule", "file", "--mc-out", "{dir}/mc.json"], None, {}),
        ("gihf-missing-schedule-file",
         GIHF + ["--schedule", "file", "--schedule-file", ABSENT], None, {}),
        ("cert-missing-key", ["verify", "cert", *WORD, "--cert", "{dir}/c.json"], None,
         {"c.json": '{"A": [1, 2]}'}),
        ("cert-not-an-object", ["verify", "cert", *WORD, "--cert", "{dir}/c.json"], None,
         {"c.json": "7"}),
        ("cert-unhashable-symbol", ["verify", "cert", *WORD, "--cert", "{dir}/c.json"], None,
         {"c.json": '{"A": [[1], 2], "p": 1, "splits": []}'}),
        ("cert-missing-file", ["verify", "cert", *WORD, "--cert", ABSENT], None, {}),
        ("cert-missing-file-word-from-stdin", ["verify", "cert", "--cert", ABSENT], "1 2\n", {}),
        # each of these verified on 1 2 3 1 2 3 once its field was truncated
        ("cert-float-part-count", WORD6, None,
         {"w6.txt": "1 2 3 1 2 3\n", "c.json": '{"A": [1, 2, 3], "p": 2.9, "splits": [3]}'}),
        ("cert-string-part-count", WORD6, None,
         {"w6.txt": "1 2 3 1 2 3\n", "c.json": '{"A": [1, 2, 3], "p": "2", "splits": [3]}'}),
        ("attack-cert-float-n", WORD6, None,
         {"w6.txt": "1 2 3 1 2 3\n",
          "c.json": '{"B": [1, 2], "p": 2, "splits": [3], "n": 2.7, "k": 1}'}),
        ("collision-missing-file", ["verify", "collision", "--mc", ABSENT], None, {}),
        ("collision-deeply-nested", ["verify", "collision", "--mc", "{dir}/deep.json"], None,
         {"deep.json": "[" * 100000 + "]" * 100000}),
    ]

    @pytest.mark.parametrize("args,stdin_text,files", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_report_and_exit_1(self, tmp_path, args, stdin_text, files):
        for name, text in dict(files, **{"word.txt": "1 2 1 2\n"}).items():
            (tmp_path / name).write_text(text)
        args = [a.format(dir=tmp_path) for a in args]
        proc = run_cli(*args, stdin_text=stdin_text, check=False)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        report = report_of(proc)  # its config has a successful run's keys
        assert report["command"] == " ".join(args[:2])
        for key in ("input", "word"):
            if key in report["config"] and f"--{key}" not in args:
                assert report["config"][key] == "-"  # the word came from stdin
        assert report["result"]["ok"] is False
        assert isinstance(report["result"]["error"], str) and report["result"]["error"]

    @pytest.mark.parametrize("h0", ["-1", "256"])
    @pytest.mark.parametrize("command", [
        ["attack", "joux", "--r", "2"],
        ["attack", "gihf", "--q", "2", "--r", "2", "--schedule", "mirror"],
        ["hashsim", "birthday"],
    ], ids=["joux", "gihf", "birthday"])
    def test_chaining_value_outside_n_bits(self, command, h0):
        proc = run_cli(*command, "--n", "8", "--m", "16", "--h0", h0, "--seed", "1",
                       check=False)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1
        assert report_of(proc)["result"] == {
            "ok": False, "error": f"hash value {h0} outside 8-bit range"}

    @pytest.mark.parametrize("q", [20, 64, 3000, 20000])
    def test_gihf_high_q_refused_before_the_threshold_is_built(self, capsys, q):
        started = time.perf_counter()
        code = cli.main(["attack", "gihf", "--n", "4", "--m", "8", "--q", str(q), "--r", "1",
                         "--schedule", "mirror", "--seed", "1"])
        elapsed = time.perf_counter() - started
        assert code == 1
        assert json.loads(capsys.readouterr().out)["result"]["error"] == (
            f"the structure search for (n=4, r=1, q={q}) would examine more than "
            f"2000000 factorizations of the schedule word")
        assert elapsed < 0.5

    def test_attack_structure_high_q_refused_quickly(self, tmp_path, capsys):
        word = tmp_path / "w.txt"
        word.write_text("1 2 3 1 2 3\n")
        started = time.perf_counter()
        code = cli.main(["nesting", "attack-structure", "--n", "2", "--k", "1", "--q", "3000",
                         "--input", str(word)])
        elapsed = time.perf_counter() - started
        assert code == 1
        assert "alphabet size 3 " in json.loads(capsys.readouterr().out)["result"]["error"]
        assert elapsed < 1

    def test_attack_structure_high_q_odd_n_refused_quickly(self, tmp_path, capsys):
        # at n = 3 the uncapped request 3^(2999^2) took seconds to build
        word = tmp_path / "w.txt"
        word.write_text("1 2 3 1 2 3\n")
        started = time.perf_counter()
        code = cli.main(["nesting", "attack-structure", "--n", "3", "--k", "1", "--q", "3000",
                         "--input", str(word)])
        elapsed = time.perf_counter() - started
        assert code == 1
        assert json.loads(capsys.readouterr().out)["result"]["error"] == (
            "alphabet size 3 is too small for the subalphabet that (n=3, k=1, q=3000) needs")
        assert elapsed < 1

    @pytest.mark.parametrize("command", [["hashsim", "birthday"], ["attack", "joux", "--r", "2"]])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_names_the_option(self, capsys, command, trials):
        code = cli.main([*command, "--n", "8", "--m", "16", "--trials", trials, "--seed", "1"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["result"]["error"] == (
            f"--trials must be >= 1, got {trials}")

    def test_seed_variable_read_at_parse_time(self, monkeypatch, capsys):
        # the parser is built once per process; each call reads the variable
        argv = ["hashsim", "birthday", "--n", "8", "--m", "16"]
        for seed in ("11", "12"):
            monkeypatch.setenv("GIHFLAB_SEED", seed)
            assert cli.main(argv) == 0
            assert json.loads(capsys.readouterr().out)["config"]["seed"] == int(seed)
        for value in (None, "abc"):
            if value is None:
                monkeypatch.delenv("GIHFLAB_SEED")
            else:
                monkeypatch.setenv("GIHFLAB_SEED", value)
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2

    def test_seed_variable_not_an_integer_is_a_usage_error(self):
        proc = run_cli("hashsim", "birthday", "--n", "8", "--m", "16",
                       env_extra={"GIHFLAB_SEED": "abc"}, check=False)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 2


class TestScheduleLabel:
    """A collision file labelled identity or mirror verifies only with that
    schedule's word for its length."""

    def test_relabelled_schedule_rejected(self, tmp_path):
        path = tmp_path / "j.json"
        run_cli("attack", "joux", "--n", "8", "--m", "16", "--r", "3", "--seed", "1",
                "--mc-out", str(path))
        data = json.loads(path.read_text())
        assert data["schedule"] == "identity" and data["alpha"] == [1, 2, 3]
        assert report_of(run_cli("verify", "collision", "--mc", str(path)))["result"]["ok"]

        for label, ok in (("mirror", False), ("file", True)):
            path.write_text(json.dumps(dict(data, schedule=label)))
            proc = run_cli("verify", "collision", "--mc", str(path), check=False)
            assert "Traceback" not in proc.stderr
            assert proc.returncode == (0 if ok else 1)
            assert report_of(proc)["result"]["ok"] is ok

    def test_mirror_word_relabelled_identity_rejected(self, tmp_path):
        mc, report = generalized_attack(CompressionOracle(8, 16, seed=5), mirror_schedule(),
                                        2, 8, 2)
        path = tmp_path / "mc.json"
        cli._write_mc(str(path), mc, report, mirror_schedule())
        data = json.loads(path.read_text())
        for label, ok in (("identity", False), ("file", True)):
            path.write_text(json.dumps(dict(data, schedule=label)))
            proc = run_cli("verify", "collision", "--mc", str(path), check=False)
            assert proc.returncode == (0 if ok else 1)
            assert report_of(proc)["result"]["ok"] is ok
