"""Closed-loop measurement of one workload, untraced or traced.

One caller issues ops back to back (no threads).  The untraced run runs
whole cycles for about `seconds` of op time, times the workload's set-up
`setup_reps` times between its ops, and reports the end-to-end metrics.  Op
and set-up times are taken on a SteadyClock (see clock.py): seconds at the
host's uncontended speed, not wall seconds.  The traced run
replays a fixed number of cycles twice, first untraced and then under a
Tracer, and reports the per-layer metrics; the number of cycles depends only
on `seconds`, so every count it reports repeats exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from clock import SteadyClock
from spans import COMPRESS, LAYERS, OP, Tracer
from workloads import WORKLOADS

SETUP_SEED = -1

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

_COUNT_SUFFIXES = (".calls", ".misses", ".refusals", ".messages", ".queries")


def layer_unit(name: str) -> str:
    if name.endswith(_COUNT_SUFFIXES) or name in ("trace.ops", "oracle_queries_per_op"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio"


@dataclass
class Pass:
    kinds: list = field(default_factory=list)
    times: list = field(default_factory=list)  # work of each op, in probe times
    work: float = 0.0  # summed work of the ops, in probe times
    walls: list = field(default_factory=list)  # wall time of each op, in s
    failed: int = 0
    genuine_failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    reports: list = field(default_factory=list)  # AttackReport of every attack op


def run_cycles(workload, *, clock: SteadyClock, seconds: float = 0.0, cycles=None,
               tracer=None, set_ups=None) -> Pass:
    """Run whole cycles: `cycles` of them, or else as many as brings the op
    time nearest to `seconds` (at least one).  Ops follow each other
    directly except for the timed set-ups that `set_ups` makes between ops,
    which are not op time.

    Each cycle's outputs are checked, and then dropped, once the cycle is
    over, outside the timed region and with the tracer removed; so memory
    does not grow with the number of ops."""
    run = Pass()
    k = 0
    while (k < cycles) if cycles is not None else (
            k == 0 or clock.seconds(run.work) * (1 + 0.5 / k) < seconds):
        _run_cycle(workload, k, run, tracer, clock, set_ups)
        k += 1
    return run


def _run_cycle(workload, k: int, run: Pass, tracer, clock: SteadyClock, set_ups) -> None:
    batch = workload.cycle(k)
    outputs = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in batch:
            if set_ups is not None:
                set_ups.due(clock.seconds(run.work))
            start, wall = clock.now(), perf_counter()
            if tracer is None:
                outputs.append(workload.run(op))
            else:
                outputs.append(tracer.run_op(len(run.times), workload.run, op))
            run.walls.append(perf_counter() - wall)
            work = clock.now() - start
            run.times.append(work)
            run.work += work
    for op, output in zip(batch, outputs):
        run.kinds.append(op.kind)
        reason = workload.check(op, output)
        if reason is not None:
            run.failed += 1
            run.genuine_failed += not op.hostile
            run.reasons[reason] += 1
        if op.kind == "attack":
            run.reports.append(output[1])


class SetUps:
    """Timed set-ups of a workload.  Each builds it from SETUP_SEED, the same
    for every seed, runs one warm-up op and closes it again.  In an untraced
    run they are spread evenly over the op time (`due` before each op,
    `finish` after the last), so that a set-up cannot hide in the run's
    first seconds or last.  ``times`` holds their work, in probe times."""

    def __init__(self, cls, sizes: dict, workdir: Path, clock: SteadyClock, reps: int,
                 seconds: float = 0.0):
        self.cls, self.sizes, self.workdir, self.clock = cls, sizes, workdir, clock
        self.reps, self.seconds = reps, seconds
        self.times: list = []
        self.warm_failures = 0

    def due(self, op_time: float) -> None:
        """Time one set-up if the run's op time has reached the next one's turn."""
        if len(self.times) < self.reps and op_time >= len(self.times) * self.seconds / self.reps:
            self.time_one()

    def finish(self) -> None:
        while len(self.times) < self.reps:
            self.time_one()

    def time_one(self) -> None:
        start = self.clock.now()
        workload = self.cls(SETUP_SEED, self.sizes, self.workdir)
        try:
            workload.prepare()
            warm = workload.cycle(0)[0]
            output = workload.run(warm)
            self.times.append(self.clock.now() - start)
            self.warm_failures += workload.check(warm, output) is not None
        finally:
            workload.close()


def build(cls, seed: int, sizes: dict, workdir: Path):
    """The workload a run measures, built from `seed`; not timed."""
    workload = cls(seed, sizes, workdir)
    try:
        workload.prepare()
    except BaseException:
        workload.close()
        raise
    return workload


def set_up(name: str, seed: int, sizes: dict, workdir: Path, reps: int, clock: SteadyClock):
    """Time `reps` set-ups back to back, then build the workload from `seed`.
    Returns (workload, set-up work in probe times, warm-up failures)."""
    set_ups = SetUps(WORKLOADS[name], sizes, workdir, clock, reps)
    set_ups.finish()
    return build(WORKLOADS[name], seed, sizes, workdir), set_ups.times, set_ups.warm_failures


def percentile(ordered: list, pct: float):
    """Nearest-rank percentile of sorted samples and the count beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _clock_details(clock: SteadyClock) -> dict:
    return {"probe_fastest_s": clock.fastest, "probe_samples": clock.samples}


def _result(correct: bool, attempted: int, failed: int, metrics: dict, unit) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit(key)} for key, value in metrics.items()},
    }


def measure_untraced(name: str, seed: int, seconds: float, sizes: dict, workdir: Path,
                     clock: SteadyClock):
    """End-to-end metrics.  Returns (result, details)."""
    cls = WORKLOADS[name]
    workload = build(cls, seed, sizes, workdir)
    set_ups = SetUps(cls, sizes, workdir, clock, cls.setup_reps, seconds)
    try:
        run = run_cycles(workload, seconds=seconds, clock=clock, set_ups=set_ups)
        set_ups.finish()
    finally:
        workload.close()
    setup_times = [clock.seconds(work) for work in set_ups.times]
    times = [clock.seconds(work) for work in run.times]
    attempted, failed = len(times), run.failed
    ordered = sorted(times)
    tail, beyond = percentile(ordered, cls.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": attempted / clock.seconds(run.work),
        "op_p50_s": statistics.median(ordered),
        "op_tail_s": tail,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_kind: dict = {}
    for kind, elapsed in zip(run.kinds, times):
        by_kind.setdefault(kind, []).append(elapsed)
    details = {
        "fail_frac": failed / attempted,
        "failures": dict(run.reasons),
        "setup_times_s": setup_times,
        "op_tail": {"percentile": cls.tail_pct, "samples": attempted, "beyond": beyond},
        "op_kinds": {kind: {"ops": len(ts), "median_s": statistics.median(ts)}
                     for kind, ts in by_kind.items()},
        "op_s": clock.seconds(run.work),
        "op_wall_s": sum(run.walls),
        "op_wall_p50_s": statistics.median(run.walls),
        **_clock_details(clock),
    }
    correct = run.genuine_failed == 0 and set_ups.warm_failures == 0
    return _result(correct, attempted, failed, metrics, END_TO_END_UNITS.get), details


def _attack_metrics(reports: list) -> dict:
    """Query accounting of the attack reports of a traced run.

    Level i of an attack with p levels has n^(p-i) * r stages (level 1:
    one pair collision per position of B); stage cost is the mean queries
    per stage divided by 2^(n/2)."""
    levels = {1: [0, 0, 0.0], 2: [0, 0, 0.0]}  # queries, stages, queries / 2^(n/2)
    for rep in reports:
        for i, queries in enumerate(rep.level_queries, start=1):
            if i in levels:
                stages = rep.n ** (rep.p - i) * rep.r
                levels[i][0] += queries
                levels[i][1] += stages
                levels[i][2] += queries / 2 ** (rep.n / 2)
    queries = sum(rep.attack_queries for rep in reports)
    metrics = {}
    for i, (level_queries, stages, scaled) in levels.items():
        metrics[f"attacks.level{i}.queries"] = level_queries
        metrics[f"attacks.level{i}.stage_cost"] = scaled / stages if stages else 0.0
    metrics["attacks.bound_ratio"] = queries / sum(rep.bound for rep in reports) if reports else 0.0
    metrics["attacks.replay_ratio"] = (
        sum(rep.raw_calls for rep in reports) / queries if queries else 0.0)
    metrics["oracle_queries_per_op"] = queries / len(reports) if reports else 0.0
    return metrics


def layer_metrics(tracer: Tracer, plain: Pass, traced: Pass) -> dict:
    totals = tracer.layer_totals()
    op_wall = totals[OP]["total_s"]
    metrics = {}
    for layer in LAYERS:
        entry = totals[layer]
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.total_s"] = entry["total_s"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.share"] = entry["self_s"] / op_wall
    metrics["regularity.find_structure.refusals"] = totals["regularity.find_structure"]["refusals"]
    compress = totals[COMPRESS]
    metrics[f"{COMPRESS}.misses"] = compress["misses"]
    metrics[f"{COMPRESS}.hit_ratio"] = (
        1.0 - compress["misses"] / compress["calls"] if compress["calls"] else 0.0)
    verify = totals["attacks.verify_multicollision"]
    metrics["attacks.verify_multicollision.messages"] = verify["messages"]
    metrics["attacks.verify_multicollision.messages_per_s"] = (
        verify["messages"] / verify["total_s"] if verify["total_s"] else 0.0)
    metrics["attacks.verify_multicollision.complete_frac"] = (
        verify["complete"] / verify["calls"] if verify["calls"] else 0.0)
    metrics.update(_attack_metrics(traced.reports))
    metrics["trace.ops"] = len(traced.times)
    metrics["trace.overhead_frac"] = traced.work / plain.work - 1.0
    metrics["trace.accounted_frac"] = 1.0 - totals[OP]["self_s"] / op_wall
    return metrics


def measure_traced(name: str, seed: int, seconds: float, sizes: dict, workdir: Path,
                   clock: SteadyClock):
    """Per-layer metrics.  Returns (result, details); details hold the spans."""
    cls = WORKLOADS[name]
    cycles = max(1, math.ceil(seconds * cls.trace_cycles_per_s))
    workload, _, warm_failures = set_up(name, seed, sizes, workdir, 1, clock)
    tracer = Tracer()
    try:
        plain = run_cycles(workload, cycles=cycles, clock=clock)
        traced = run_cycles(workload, cycles=cycles, tracer=tracer, clock=clock)
    finally:
        workload.close()
    attempted = len(plain.times) + len(traced.times)
    failed = plain.failed + traced.failed
    metrics = layer_metrics(tracer, plain, traced)
    details = {
        "fail_frac": failed / attempted,
        "failures": dict(plain.reasons + traced.reasons),
        "cycles": cycles,
        "untraced_op_s": clock.seconds(plain.work),
        "traced_op_s": clock.seconds(traced.work),
        "untraced_op_wall_s": sum(plain.walls),
        "traced_op_wall_s": sum(traced.walls),
        **_clock_details(clock),
        "trace": tracer.dump(),
    }
    correct = plain.genuine_failed + traced.genuine_failed == 0 and warm_failures == 0
    return _result(correct, attempted, failed, metrics, layer_unit), details


def measure(name: str, seed: int, seconds: float, trace: bool, *, sizes=None, workdir: Path):
    """Run one workload and write its details to `workdir`; returns the result."""
    cls = WORKLOADS[name]
    sizes = cls.FULL if sizes is None else sizes
    run = measure_traced if trace else measure_untraced
    with SteadyClock() as clock:
        result, details = run(name, seed, seconds, sizes, workdir, clock)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                "sizes": sizes, "result": result, "details": details}),
                    encoding="utf-8")
    return result, details
