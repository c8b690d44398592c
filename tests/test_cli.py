import json
import os
import subprocess
import sys

import pytest

from gihflab import cli
from gihflab.attacks import generalized_attack
from gihflab.hashsim import CompressionOracle, mirror_schedule

CLI = [sys.executable, "-m", "gihflab.cli"]


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
    return json.loads(proc.stdout)


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

    def test_find_greedy_mode(self):
        proc = run_cli("regularity", "find", "--m", "2", "--q", "2",
                       "--mode", "greedy", stdin_text="1 2 1 2\n")
        found = report_of(proc)["result"]["results"][0]
        assert found["found"]

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
        ("classics cadence", ["classics", "cadence", "--s", "2"], "1 2 1\n"),
        ("regularity find", ["regularity", "find", "--m", "2", "--q", "2"], "1 2 1 2\n"),
        ("regularity witness", ["regularity", "witness", "--m", "4"], None),
        ("regularity compute-n",
         ["regularity", "compute-n", "--m", "2", "--q", "2", "--cap", "3"], None),
        ("hashsim birthday",
         ["hashsim", "birthday", "--n", "8", "--m", "16", "--trials", "3",
          "--seed", "7"], None),
        ("attack joux",
         ["attack", "joux", "--n", "16", "--m", "24", "--r", "4", "--trials", "3",
          "--seed", "7"], None),
        ("attack gihf",
         ["attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2",
          "--schedule", "mirror", "--seed", "9"], None),
    ]

    @pytest.mark.parametrize("name,args,stdin_text", CASES,
                             ids=[c[0] for c in CASES])
    def test_reports_are_byte_identical(self, name, args, stdin_text):
        first = run_cli(*args, stdin_text=stdin_text)
        second = run_cli(*args, stdin_text=stdin_text)
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
    GIHF = ["attack", "gihf", "--n", "8", "--m", "16", "--q", "2", "--r", "2", "--seed", "1"]
    CASES = [
        ("cadence-order-0", ["classics", "cadence", "--s", "0"], "1 2\n", {}),
        ("cadence-missing-input",
         ["classics", "cadence", "--s", "2", "--input", ABSENT], None, {}),
        ("cadence-non-integer-symbol", ["classics", "cadence", "--s", "2"], "1 x\n", {}),
        ("ndiv-n-1", ["classics", "ndiv", "--n", "1"], "1 2\n", {}),
        ("find-m-0", ["regularity", "find", "--m", "0", "--q", "2"], "1 2 1 2\n", {}),
        ("witness-m-1", ["regularity", "witness", "--m", "1"], None, {}),
        ("compute-n-m-0", ["regularity", "compute-n", "--m", "0", "--q", "2"], None, {}),
        ("attack-structure-below-threshold",
         ["nesting", "attack-structure", "--n", "2", "--k", "2", "--q", "2"], "1 2 1 2\n", {}),
        ("attack-structure-no-word",
         ["nesting", "attack-structure", "--n", "2", "--k", "2", "--q", "2"], "", {}),
        ("birthday-k-1",
         ["hashsim", "birthday", "--n", "8", "--m", "16", "--k", "1", "--seed", "1"], None, {}),
        ("joux-n-80",
         ["attack", "joux", "--n", "80", "--m", "96", "--r", "2", "--seed", "1"], None, {}),
        ("gihf-schedule-file-not-given", GIHF + ["--schedule", "file"], None, {}),
        ("gihf-missing-schedule-file",
         GIHF + ["--schedule", "file", "--schedule-file", ABSENT], None, {}),
        ("cert-missing-key", ["verify", "cert", *WORD, "--cert", "{dir}/c.json"], None,
         {"c.json": '{"A": [1, 2]}'}),
        ("cert-not-an-object", ["verify", "cert", *WORD, "--cert", "{dir}/c.json"], None,
         {"c.json": "7"}),
        ("cert-unhashable-symbol", ["verify", "cert", *WORD, "--cert", "{dir}/c.json"], None,
         {"c.json": '{"A": [[1], 2], "p": 1, "splits": []}'}),
        ("cert-missing-file", ["verify", "cert", *WORD, "--cert", ABSENT], None, {}),
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
        report = report_of(proc)
        assert report["command"] == " ".join(args[:2])
        assert report["result"]["ok"] is False
        assert isinstance(report["result"]["error"], str) and report["result"]["error"]

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
