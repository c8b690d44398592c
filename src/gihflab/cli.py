"""Command-line entry point: batch experiments with seeded, reproducible
JSON reports.

Every subcommand is a thin adapter over the library modules; no algorithmic
logic lives here.  A handler only computes and returns its result, one-line
summary and verdict.  main alone builds the report's config, by one rule for
every run, accepted or rejected: the parsed options after the seed is
resolved, less the subcommand's name, --mc-out and --schedule-file.  It
times the run and prints the report as JSON on stdout (sorted keys, so
identical config and seed produce byte-identical bodies apart from the
timing block) and the summary on stderr.  Input that a file reader or the
library rejects (a missing file, malformed content, an out-of-range option)
gets a report whose result is {"ok": false, "error": ...}.  Exit codes: 0
success, 1 verification failure or rejected input, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict
from typing import Optional

from . import __version__
from .attacks import (
    DEFAULT_EXPANSION_CAP,
    MulticollisionSet,
    generalized_attack,
    joux_attack,
    verify_multicollision,
)
from .classics import find_arithmetic_cadence, find_n_division
from .hashsim import (
    CompressionOracle,
    Schedule,
    birthday_search,
    derive_seed,
    identity_schedule,
    mirror_schedule,
    schedule_from_words,
)
from .nesting import AttackCertificate, find_attack_structure, verify_attack_structure
from .regularity import (
    StructureCertificate,
    compute_n,
    find_structure,
    extremal_witness,
    verify_structure,
)
from .words import format_words, integers, parse_words

SEED_ENV_VAR = "GIHFLAB_SEED"
# parsed options that are not part of a report's config
_NOT_CONFIG = ("group", "command", "func", "mc_out", "schedule_file")
# the named schedules; --schedule also takes "file"
_SCHEDULES = {"identity": identity_schedule, "mirror": mirror_schedule}


# -- input readers: a bad path raises OSError, malformed content ValueError ----

def _read_words(path: str):
    if path == "-":
        return parse_words(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_words(handle.read())


def _read_word(path: str):
    words = _read_words(path)
    if not words:
        raise ValueError(f"{'stdin' if path == '-' else path} contains no word")
    return words[0]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc


def _schedule_for(name: str, schedule_file: Optional[str]) -> Schedule:
    if name in _SCHEDULES:
        return _SCHEDULES[name]()
    if schedule_file is None:
        raise ValueError("--schedule file requires --schedule-file")
    return schedule_from_words(_read_words(schedule_file))


def _read_cert(path: str):
    """Attack certificate (the file has a "B" key) or structure certificate."""
    try:
        data = _load_json(path)
        return (AttackCertificate if "B" in data else StructureCertificate).from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate file: {type(exc).__name__}: {exc}") from exc


def _read_collision(path: str):
    """Oracle, schedule, h0 and multicollision of a file written by
    _write_mc."""
    try:
        data = _load_json(path)
        n, m, seed, h0 = integers(data[key] for key in ("n", "m", "oracle_seed", "h0"))
        alpha = integers(data["alpha"])
        name = str(data.get("schedule", "file"))
        oracle = CompressionOracle(n, m, seed)
        mc = MulticollisionSet.from_dict(data["multicollision"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed collision file: {type(exc).__name__}: {exc}") from exc
    named = _SCHEDULES[name]() if name in _SCHEDULES else None

    def word(l: int):
        # the file's word serves its own length; the verifier checks its
        # coverage and (asking only once the set's size checks pass)
        # rejects it unless it is the labelled schedule's word
        if named is not None and alpha != tuple(named.generator(l)):
            raise ValueError(f"alpha is not the {name} word for length {l}")
        return alpha

    return oracle, Schedule(name, word), h0, mc


def _write_mc(path: str, mc: MulticollisionSet, report, sched: Schedule) -> None:
    payload = {
        "n": report.n,
        "m": report.m,
        "oracle_seed": report.seed,
        "h0": report.h0,
        "schedule": sched.name,
        "alpha": list(sched.generator(mc.length)),
        "multicollision": mc.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- subcommand handlers: each returns (result, summary, ok) -------------------

def _per_word(path: str, describe, title: str, verb: str):
    """(result, summary, ok) of a subcommand that reads the words at path
    and describes each by one dict with a "found" flag."""
    results = [describe(w) for w in _read_words(path)]
    hits = sum(r["found"] for r in results)
    return {"results": results}, f"{title}: {hits}/{len(results)} words {verb}", True


def _cmd_classics_cadence(args):
    def describe(w):
        cadence = find_arithmetic_cadence(w, args.s)
        if cadence is None:
            return {"found": False}
        return {"found": True, "positions": list(cadence.positions),
                "difference": cadence.difference}

    return _per_word(args.input, describe, f"cadence order {args.s}", "hit")


def _cmd_classics_ndiv(args):
    def describe(w):
        division = find_n_division(w, args.n)
        if division is None:
            return {"found": False}
        return {"found": True, "prefix": list(division.prefix),
                "factors": [list(f) for f in division.factors],
                "suffix": list(division.suffix)}

    return _per_word(args.input, describe, f"{args.n}-division", "divided")


def _cmd_regularity_find(args):
    def describe(w):
        outcome = find_structure(w, args.m, args.q)
        decided = Counter(kind for _, kind in outcome.decisions)
        if outcome.certificate is None:
            return {"found": False, "exhaustive": outcome.exhaustive, "decided": decided}
        return {"found": True, **outcome.certificate.to_dict(), "decided": decided}

    return _per_word(args.input, describe, f"structure m={args.m} q={args.q}", "certified")


def _cmd_regularity_witness(args):
    w = extremal_witness(args.m)
    counts = Counter(w)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(format_words([w]))
    return ({"word": list(w), "length": len(w), "alphabet_size": len(counts),
             "max_count": max(counts.values())},
            f"witness m={args.m}: length {len(w)} over {len(counts)} letters", True)


def _cmd_regularity_compute_n(args):
    result = compute_n(args.m, args.q, args.cap)
    if result.value is not None:
        summary = f"N({args.m},{args.q}) = {result.value} (exhaustive)"
    else:
        summary = f"N({args.m},{args.q}) > {args.cap} (cap hit, partial report)"
    return result.to_dict(), summary, True


def _cmd_nesting_attack_structure(args):
    cert = find_attack_structure(_read_word(args.input), args.n, args.k, args.q)
    return cert.to_dict(), f"attack structure: p={cert.p}, |B|={len(cert.subalphabet)}", True


def _trial_oracles(args):
    """(trial, oracle) for each trial of a --trials option, each oracle
    seeded from the run seed and the trial number; fewer than one trial has
    no median or mean to report, so it is rejected input."""
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    for trial in range(args.trials):
        yield trial, CompressionOracle(args.n, args.m, derive_seed(args.seed, f"trial:{trial}"))


def _cmd_hashsim_birthday(args):
    trials = []
    for trial, oracle in _trial_oracles(args):
        blocks, queries = birthday_search(oracle, args.h0, args.k)
        trials.append({"trial": trial, "queries": queries, "blocks": list(blocks)})
    median = statistics.median(t["queries"] for t in trials)
    return ({"median_queries": median, "trials": trials},
            f"birthday k={args.k} n={args.n}: median {median} queries over {args.trials} trials",
            True)


def _cmd_attack_joux(args):
    trials = []
    all_ok = True
    for trial, oracle in _trial_oracles(args):
        mc, report = joux_attack(oracle, args.h0, args.r)
        all_ok &= report.verify_ok
        trials.append(report.to_dict())
        if args.mc_out and trial == 0:
            _write_mc(args.mc_out, mc, report, identity_schedule())
    mean = statistics.mean(t["attack_queries"] for t in trials)
    return ({"mean_attack_queries": mean, "all_verified": all_ok, "trials": trials},
            f"joux r={args.r} n={args.n}: mean {mean:.1f} queries, verified={all_ok}", all_ok)


def _cmd_attack_gihf(args):
    sched = _schedule_for(args.schedule, args.schedule_file)
    oracle = CompressionOracle(args.n, args.m, args.seed)
    mc, report = generalized_attack(oracle, sched, args.q, args.n, args.r, h0=args.h0)
    if args.mc_out:
        _write_mc(args.mc_out, mc, report, sched)
    return (report.to_dict(),
            f"gihf attack q={args.q} r={args.r} n={args.n}: l={report.l}, "
            f"{report.attack_queries} queries (bound {report.bound}), "
            f"verified={report.verify_ok}",
            report.verify_ok)


def _cmd_verify_cert(args):
    cert = _read_cert(args.cert)
    w = _read_word(args.word)
    if isinstance(cert, AttackCertificate):
        ok = verify_attack_structure(w, cert)
        kind = "attack"
    else:
        m = args.m if args.m is not None else len(cert.subalphabet)
        ok = verify_structure(w, cert, m)
        kind = "structure"
    return ({"kind": kind, "ok": ok}, f"{kind} certificate: {'OK' if ok else 'REJECTED'}", ok)


def _cmd_verify_collision(args):
    oracle, sched, h0, mc = _read_collision(args.mc)
    outcome = verify_multicollision(oracle, sched, h0, mc, cap=args.cap)
    return (asdict(outcome),
            f"multicollision: {'OK' if outcome.ok else 'REJECTED'} "
            f"({outcome.checked} messages{'' if outcome.complete else ', sampled'})",
            outcome.ok)


# -- parser --------------------------------------------------------------------

def _seed_from_environment(parser: argparse.ArgumentParser) -> int:
    """The seed GIHFLAB_SEED sets; a missing or non-integer value is a
    usage error (exit 2)."""
    value = os.environ.get(SEED_ENV_VAR)
    if not value:
        parser.error(f"--seed is required unless {SEED_ENV_VAR} is set")
    try:
        return int(value)
    except ValueError:
        parser.error(f"{SEED_ENV_VAR} is not an integer: {value!r}")


@functools.cache  # building the eleven subparsers costs more than a small verification
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gihflab",
        description="Bounded-word regularity certificates and multicollision "
                    "attacks on simulated iterated hash functions.")
    sub = parser.add_subparsers(dest="group", required=True)
    # option groups shared by several subcommands, each defined once
    word_file = argparse.ArgumentParser(add_help=False)
    word_file.add_argument("--input", default="-", help="word file (default stdin)")
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--m", type=int, required=True)
    oracle.add_argument("--h0", type=int, default=0)
    # the parser is cached, so main reads the variable when --seed is absent
    oracle.add_argument("--seed", type=int, help=f"run seed (or set {SEED_ENV_VAR})")

    classics = sub.add_parser("classics", help="classical regularity finders")
    classics_sub = classics.add_subparsers(dest="command", required=True)
    cadence = classics_sub.add_parser("cadence", parents=[word_file],
                                      help="arithmetic cadence finder")
    cadence.add_argument("--s", type=int, required=True, help="cadence order")
    cadence.set_defaults(func=_cmd_classics_cadence)
    ndiv = classics_sub.add_parser("ndiv", parents=[word_file], help="n-division finder")
    ndiv.add_argument("--n", type=int, required=True, help="factor count")
    ndiv.set_defaults(func=_cmd_classics_ndiv)

    regularity = sub.add_parser("regularity", help="structure certificates")
    regularity_sub = regularity.add_subparsers(dest="command", required=True)
    find = regularity_sub.add_parser("find", parents=[word_file],
                                     help="search for a certificate")
    find.add_argument("--m", type=int, required=True)
    find.add_argument("--q", type=int, required=True)
    find.set_defaults(func=_cmd_regularity_find)
    witness = regularity_sub.add_parser("witness", help="extremal 2-bounded witness")
    witness.add_argument("--m", type=int, required=True)
    witness.add_argument("--out", help="write the word file here")
    witness.set_defaults(func=_cmd_regularity_witness)
    compute = regularity_sub.add_parser("compute-n", help="exact boundary search")
    compute.add_argument("--m", type=int, required=True)
    compute.add_argument("--q", type=int, required=True)
    compute.add_argument("--cap", type=int, default=6, help="largest alphabet size to scan")
    compute.set_defaults(func=_cmd_regularity_compute_n)

    nesting = sub.add_parser("nesting", help="attack-structure extraction")
    nesting_sub = nesting.add_subparsers(dest="command", required=True)
    attack_structure = nesting_sub.add_parser("attack-structure", parents=[word_file])
    attack_structure.add_argument("--n", type=int, required=True)
    attack_structure.add_argument("--k", type=int, required=True)
    attack_structure.add_argument("--q", type=int, required=True)
    attack_structure.set_defaults(func=_cmd_nesting_attack_structure)

    hashsim = sub.add_parser("hashsim", help="oracle simulation baselines")
    hashsim_sub = hashsim.add_subparsers(dest="command", required=True)
    birthday = hashsim_sub.add_parser("birthday", parents=[oracle],
                                      help="k-collision birthday search")
    birthday.add_argument("--k", type=int, default=2)
    birthday.add_argument("--trials", type=int, default=1)
    birthday.set_defaults(func=_cmd_hashsim_birthday)

    attack = sub.add_parser("attack", help="multicollision attacks")
    attack_sub = attack.add_subparsers(dest="command", required=True)
    joux = attack_sub.add_parser("joux", parents=[oracle],
                                 help="classic chained pair collisions")
    joux.add_argument("--r", type=int, required=True)
    joux.add_argument("--trials", type=int, default=1)
    joux.add_argument("--mc-out", help="write the first trial's multicollision JSON here")
    joux.set_defaults(func=_cmd_attack_joux)
    gihf = attack_sub.add_parser("gihf", parents=[oracle], help="generalized q-bounded attack")
    gihf.add_argument("--q", type=int, required=True)
    gihf.add_argument("--r", type=int, required=True)
    gihf.add_argument("--schedule", choices=[*_SCHEDULES, "file"], default="mirror")
    gihf.add_argument("--schedule-file", help="word file with one schedule word per line")
    gihf.add_argument("--mc-out", help="write the multicollision JSON here")
    gihf.set_defaults(func=_cmd_attack_gihf)

    verify = sub.add_parser("verify", help="re-check certificates and collisions")
    verify_sub = verify.add_subparsers(dest="command", required=True)
    cert = verify_sub.add_parser("cert", help="structure or attack certificate")
    cert.add_argument("--word", default="-", help="word file (default stdin)")
    cert.add_argument("--cert", required=True, help="certificate JSON file")
    cert.add_argument("--m", type=int, help="subalphabet size (structure certificates)")
    cert.set_defaults(func=_cmd_verify_cert)
    collision = verify_sub.add_parser("collision", help="multicollision JSON file")
    collision.add_argument("--mc", required=True)
    collision.add_argument("--cap", type=int, default=DEFAULT_EXPANSION_CAP,
                           help="most (live picks, state) pairs the one-pass check may "
                                "hold; a larger set is sampled with this many messages")
    collision.set_defaults(func=_cmd_verify_collision)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seed" in vars(args) and args.seed is None:
        args.seed = _seed_from_environment(parser)
    command = f"{args.group} {args.command}"
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    started = time.time()
    try:
        result, summary, ok = args.func(args)
    except (OSError, ValueError) as exc:
        result = {"ok": False, "error": str(exc)}
        summary, ok = f"{command}: rejected input: {exc}", False
    report = {
        "tool": "gihflab",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
        "timing": {"elapsed_s": round(time.time() - started, 6)},
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
