"""Tests of the benchmark itself, run at tiny sizes."""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (str(ROOT / "src"), str(BENCH)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import clock  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gihflab import attacks, hashsim, regularity  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = ("oracle_queries_per_op", "attacks.level1.queries", "attacks.level2.queries",
         "hashsim.compress.calls", "hashsim.compress.misses",
         "regularity.find_structure.refusals", "trace.ops")


def _tiny(name, seed, trace, workdir):
    sizes = workloads.WORKLOADS[name].TINY
    return measure.measure(name, seed, 0.05, trace, sizes=sizes, workdir=workdir)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench_out")
    return {(name, trace): _tiny(name, 1, trace, workdir)
            for name in NAMES for trace in (False, True)}


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert SPEC["command"][1] == "bench/run.py"


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny_runs, name, trace):
    result, details = tiny_runs[name, trace]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {key: m["unit"] for key, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    hostile = {f"{kind}:" for kind in workloads.VerifyCli.HOSTILE}
    for reason in details["failures"]:  # only hostile inputs may fail
        assert any(reason.startswith(prefix) for prefix in hostile), reason


def test_end_to_end_values_are_positive(tiny_runs):
    for name in NAMES:
        result, _ = tiny_runs[name, False]
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_exact_counts_repeat_for_a_seed(tiny_runs, tmp_path):
    for name in NAMES:
        again, _ = _tiny(name, 1, True, tmp_path)
        first, _ = tiny_runs[name, True]
        for key in EXACT + tuple(k for k in first["metrics"] if k.endswith(".calls")):
            assert again["metrics"][key] == first["metrics"][key], (name, key)


def _corrupt_block(mc):
    """Overwrite the second choice of the first group with the first one, so
    two expanded messages coincide (a flipped bit could still collide at
    the tiny hash lengths used here)."""
    group = mc.groups[0]
    same = dataclasses.replace(group, choices=(group.choices[0], group.choices[0]))
    return dataclasses.replace(mc, groups=(same,) + mc.groups[1:])


@pytest.fixture
def steady():
    with clock.SteadyClock() as steady:
        yield steady


def _one_cycle(name, tmp_path, steady):
    """A set-up workload, one cycle of its ops and their outputs, all of
    which pass their checks except those on hostile inputs."""
    workload, _, _ = measure.set_up(name, 3, workloads.WORKLOADS[name].TINY, tmp_path, 1, steady)
    try:
        ops = workload.cycle(0)
        outputs = [workload.run(op) for op in ops]
    finally:
        workload.close()
    assert all(workload.check(op, out) is None for op, out in zip(ops, outputs) if not op.hostile)
    return workload, ops, outputs


@pytest.mark.parametrize("name", ["gihf_q2", "joux_n24"])
def test_corrupted_attack_output_is_a_failure(name, tmp_path, steady):
    workload, ops, outputs = _one_cycle(name, tmp_path, steady)
    mc, report = outputs[0]
    for bad in ((_corrupt_block(mc), report),
                (mc, dataclasses.replace(report, level_queries=report.level_queries[:-1] + (0,))),
                (mc, dataclasses.replace(report, stage_queries=(report.attack_queries + 1,))),
                (mc, dataclasses.replace(report, verify_ok=False))):
        assert workload.check(ops[0], bad) is not None


def test_corrupted_outputs_are_counted_as_failed_ops(tmp_path, steady):
    workload, _, _ = measure.set_up("joux_n24", 4, workloads.JouxN24.TINY, tmp_path, 1, steady)
    run = workload.run
    workload.run = lambda op: (_corrupt_block(run(op)[0]), run(op)[1])
    result = measure.run_cycles(workload, cycles=3, clock=steady)
    assert (result.failed, result.genuine_failed, len(result.times)) == (3, 3, 3)


def test_corrupted_cli_output_is_a_failure(tmp_path, steady):
    workload, ops, outputs = _one_cycle("verify_cli", tmp_path, steady)
    for op, (code, report) in zip(ops, outputs):
        if op.hostile:
            assert workload.check(op, (0, "")) is not None
            continue
        data = json.loads(report)
        data["result"]["ok"] = False
        assert workload.check(op, (code, json.dumps(data))) is not None
        assert workload.check(op, (1, report)) is not None


def test_corrupted_decisions_are_failures(tmp_path, steady):
    workload, ops, outputs = _one_cycle("boundary_scan", tmp_path, steady)
    assert [op.kind for op in ops[:2]] == ["witness", "word"]
    certified = outputs[1]
    assert workload.check(ops[0], certified) is not None
    assert workload.check(ops[0], regularity.SearchOutcome(None, False)) is not None
    for op in ops[1:]:
        assert workload.check(op, regularity.SearchOutcome(None, True)) is not None
    wrong = dataclasses.replace(certified.certificate,
                                subalphabet=certified.certificate.subalphabet[:-1])
    assert workload.check(ops[1], regularity.SearchOutcome(wrong, True)) is not None


def _library_attributes():
    return {(mod.__name__, key): value
            for mod in spans._library_modules() for key, value in vars(mod).items()}


def test_tracer_restores_every_attribute_and_accounts_for_op_time():
    before = _library_attributes()
    compress = hashsim.CompressionOracle.__dict__["compress"]
    with spans.Tracer() as tracer:
        assert attacks.joux_attack is not before["gihflab.attacks", "joux_attack"]
        oracle = hashsim.CompressionOracle(8, 12, 5)
        tracer.run_op(0, attacks.joux_attack, oracle, 0, 3)
    assert _library_attributes() == before
    assert hashsim.CompressionOracle.__dict__["compress"] is compress
    totals = tracer.layer_totals()
    assert totals["attacks.joux_attack"]["calls"] == 1
    assert totals["attacks.verify_multicollision"]["messages"] == 8
    # the verifier re-hashes 8 messages of 3 blocks on a clone, which sees
    # two distinct (state, block) pairs per position
    assert totals[spans.COMPRESS]["calls"] == oracle.raw_calls + 8 * 3
    assert totals[spans.COMPRESS]["misses"] == oracle.query_count + 2 * 3
    self_sum = sum(totals[name]["self_s"] for name in spans.LAYERS + (spans.OP,))
    assert self_sum == pytest.approx(totals[spans.OP]["total_s"], rel=1e-9)


def test_tracer_restores_after_an_error():
    before = _library_attributes()
    with pytest.raises(ValueError):
        with spans.Tracer() as tracer:
            tracer.run_op(0, attacks.joux_attack, hashsim.CompressionOracle(8, 12, 5), 0, 0)
    assert _library_attributes() == before


def _busy(seconds):
    end = clock.perf_counter() + seconds
    while clock.perf_counter() < end:
        pass


def test_steady_clock_counts_no_more_than_wall_time_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with clock.SteadyClock() as steady:
        assert signal.getsignal(signal.SIGALRM) != before
        start, wall = steady.now(), clock.perf_counter()
        _busy(0.2)
        work, wall = steady.now() - start, clock.perf_counter() - wall
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert steady.samples > steady.FIRST_PROBES
    # every stretch counts at (fastest probe / its probe) <= 1 of its wall time
    assert 0.0 < work * steady.fastest <= wall


def test_steady_clock_does_not_count_its_probes(monkeypatch):
    steady = clock.SteadyClock()  # not entered: samples only when told to
    for _ in range(steady.FIRST_PROBES):
        steady._sample()
    monkeypatch.setattr(clock, "_probe", lambda: (_busy(0.05), 0.05)[1])
    start = steady.now()
    steady._sample()
    assert (steady.now() - start) * steady.fastest < 0.01


def test_set_up_time_does_not_depend_on_the_seed(tmp_path, steady, monkeypatch):
    built = []
    prepare = workloads.JouxN24.prepare
    monkeypatch.setattr(workloads.JouxN24, "prepare", lambda self: (built.append(self.seed),
                                                                      prepare(self)))
    workload, times, _ = measure.set_up("joux_n24", 4, workloads.JouxN24.TINY, tmp_path, 3, steady)
    assert len(times) == 3
    assert built == [measure.SETUP_SEED] * 3 + [4]
    assert workload.seed == 4


def test_set_ups_are_spread_over_the_run(tmp_path, steady, monkeypatch):
    set_ups = measure.SetUps(workloads.JouxN24, workloads.JouxN24.TINY, tmp_path, steady, 4, 8.0)
    monkeypatch.setattr(set_ups, "time_one", lambda: set_ups.times.append(0.0))
    done = []
    for op_time in (0.0, 1.0, 2.0, 3.0, 100.0, 200.0):
        set_ups.due(op_time)
        done.append(len(set_ups.times))
    set_ups.finish()
    assert done == [1, 1, 2, 2, 3, 4]
    assert len(set_ups.times) == 4


def test_percentile_keeps_its_samples_beyond():
    assert measure.percentile(list(range(1, 21)), 50.0) == (10, 10)
    assert measure.percentile([3.0], 99.9) == (3.0, 0)


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    child = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + ["--workload", NAMES[0], "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert child.returncode != 0
    assert child.stdout == ""
