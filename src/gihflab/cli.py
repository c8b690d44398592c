"""Command-line entry point: batch experiments with seeded, reproducible
JSON reports.

Every subcommand is a thin adapter over the library modules; no algorithmic
logic lives here.  A handler only computes and returns its config, result,
one-line summary and verdict; main alone times the run and prints the report
as JSON on stdout (sorted keys, so identical config and seed produce
byte-identical bodies apart from the timing block) and the summary on
stderr.  Input that a file reader or the library rejects (a missing file,
malformed content, an out-of-range option) gets a report whose result is
{"ok": false, "error": ...}.  Exit codes: 0 success, 1 verification failure
or rejected input, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Optional

from . import __version__
from .attacks import (
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
from .words import format_words, parse_words, word_stats

SEED_ENV_VAR = "GIHFLAB_SEED"


# -- input readers: a bad path raises OSError, malformed content ValueError ----

def _read_words(path: Optional[str]):
    if path is None or path == "-":
        return parse_words(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_words(handle.read())


def _read_word(path: Optional[str]):
    words = _read_words(path)
    if not words:
        raise ValueError(f"{path or 'stdin'} contains no word")
    return words[0]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc


def _schedule_for(name: str, schedule_file: Optional[str]) -> Schedule:
    if name == "identity":
        return identity_schedule()
    if name == "mirror":
        return mirror_schedule()
    if schedule_file is None:
        raise ValueError("--schedule file requires --schedule-file")
    return schedule_from_words(_read_words(schedule_file))


def _read_cert(path: str):
    """Attack certificate (the file has a "B" key) or structure certificate."""
    try:
        data = _load_json(path)
        cert = (AttackCertificate if "B" in data else StructureCertificate).from_dict(data)
        if any(type(v) is not int for v in (*cert.subalphabet, *cert.splits)):
            raise ValueError("the subalphabet and splits must hold integers")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate file: {type(exc).__name__}: {exc}") from exc
    return cert


def _read_collision(path: str):
    """Oracle, schedule, h0 and multicollision of a file written by
    _write_mc."""
    try:
        data = _load_json(path)
        n, m, seed, h0 = (data[key] for key in ("n", "m", "oracle_seed", "h0"))
        alpha = tuple(data["alpha"])
        if any(type(v) is not int for v in (n, m, seed, h0, *alpha)):
            raise ValueError("n, m, oracle_seed, h0 and alpha must hold integers")
        name = str(data.get("schedule", "file"))
        oracle = CompressionOracle(n, m, seed)
        mc = MulticollisionSet.from_dict(data["multicollision"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed collision file: {type(exc).__name__}: {exc}") from exc
    named = _schedule_for(name, None) if name in ("identity", "mirror") else None

    def word(l: int):
        # the file's word serves its own length; the verifier checks its
        # coverage and bound, and (asking only once the set's size checks
        # pass) rejects it unless it is the labelled schedule's word
        if named is not None and alpha != tuple(named.generator(l)):
            raise ValueError(f"alpha is not the {name} word for length {l}")
        return alpha

    return oracle, Schedule(name, word_stats(alpha).max_count, word), h0, mc


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


# -- subcommand handlers: each returns (config, result, summary, ok) -----------

def _cmd_classics_cadence(args):
    results = []
    for w in _read_words(args.input):
        cadence = find_arithmetic_cadence(w, args.s)
        if cadence is None:
            results.append({"found": False})
        else:
            results.append({
                "found": True,
                "positions": list(cadence.positions),
                "difference": cadence.difference,
            })
    hits = sum(r["found"] for r in results)
    return ({"s": args.s, "input": args.input or "-"}, {"results": results},
            f"cadence order {args.s}: {hits}/{len(results)} words hit", True)


def _cmd_classics_ndiv(args):
    results = []
    for w in _read_words(args.input):
        division = find_n_division(w, args.n)
        if division is None:
            results.append({"found": False})
        else:
            results.append({
                "found": True,
                "prefix": list(division.prefix),
                "factors": [list(f) for f in division.factors],
                "suffix": list(division.suffix),
            })
    hits = sum(r["found"] for r in results)
    return ({"n": args.n, "input": args.input or "-"}, {"results": results},
            f"{args.n}-division: {hits}/{len(results)} words divided", True)


def _cmd_regularity_find(args):
    results = []
    for w in _read_words(args.input):
        outcome = find_structure(w, args.m, args.q, args.mode)
        if outcome.certificate is None:
            results.append({"found": False, "exhaustive": outcome.exhaustive})
        else:
            results.append({"found": True, **outcome.certificate.to_dict()})
    hits = sum(r["found"] for r in results)
    return ({"m": args.m, "q": args.q, "mode": args.mode, "input": args.input or "-"},
            {"results": results},
            f"structure m={args.m} q={args.q}: {hits}/{len(results)} words certified", True)


def _cmd_regularity_witness(args):
    w = extremal_witness(args.m)
    stats = word_stats(w)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(format_words([w]))
    return ({"m": args.m, "out": args.out},
            {"word": list(w), "length": len(w), "alphabet_size": len(stats.alphabet),
             "max_count": stats.max_count},
            f"witness m={args.m}: length {len(w)} over {len(stats.alphabet)} letters", True)


def _cmd_regularity_compute_n(args):
    result = compute_n(args.m, args.q, args.cap)
    if result.value is not None:
        summary = f"N({args.m},{args.q}) = {result.value} (exhaustive)"
    else:
        summary = f"N({args.m},{args.q}) > {args.cap} (cap hit, partial report)"
    return {"m": args.m, "q": args.q, "cap": args.cap}, result.to_dict(), summary, True


def _cmd_nesting_attack_structure(args):
    cert = find_attack_structure(_read_word(args.input), args.n, args.k, args.q)
    return ({"n": args.n, "k": args.k, "q": args.q, "input": args.input or "-"},
            cert.to_dict(), f"attack structure: p={cert.p}, |B|={len(cert.subalphabet)}", True)


def _cmd_hashsim_birthday(args):
    trials = []
    for trial in range(args.trials):
        oracle = CompressionOracle(args.n, args.m, derive_seed(args.seed, f"trial:{trial}"))
        blocks, queries = birthday_search(oracle, args.h0, args.k)
        trials.append({"trial": trial, "queries": queries, "blocks": list(blocks)})
    median = statistics.median(t["queries"] for t in trials)
    return ({"n": args.n, "m": args.m, "k": args.k, "trials": args.trials,
             "seed": args.seed, "h0": args.h0},
            {"median_queries": median, "trials": trials},
            f"birthday k={args.k} n={args.n}: median {median} queries over {args.trials} trials",
            True)


def _cmd_attack_joux(args):
    trials = []
    all_ok = True
    for trial in range(args.trials):
        oracle = CompressionOracle(args.n, args.m, derive_seed(args.seed, f"trial:{trial}"))
        mc, report = joux_attack(oracle, args.h0, args.r)
        all_ok &= report.verify_ok
        trials.append(report.to_dict())
        if args.mc_out and trial == 0:
            _write_mc(args.mc_out, mc, report, identity_schedule())
    mean = statistics.mean(t["attack_queries"] for t in trials)
    return ({"n": args.n, "m": args.m, "r": args.r, "trials": args.trials,
             "seed": args.seed, "h0": args.h0},
            {"mean_attack_queries": mean, "all_verified": all_ok, "trials": trials},
            f"joux r={args.r} n={args.n}: mean {mean:.1f} queries, verified={all_ok}", all_ok)


def _cmd_attack_gihf(args):
    sched = _schedule_for(args.schedule, args.schedule_file)
    oracle = CompressionOracle(args.n, args.m, args.seed)
    mc, report = generalized_attack(oracle, sched, args.q, args.n, args.r, h0=args.h0)
    if args.mc_out:
        _write_mc(args.mc_out, mc, report, sched)
    return ({"n": args.n, "m": args.m, "q": args.q, "r": args.r,
             "schedule": args.schedule, "seed": args.seed, "h0": args.h0},
            report.to_dict(),
            f"gihf attack q={args.q} r={args.r} n={args.n}: l={report.l}, "
            f"{report.attack_queries} queries (bound {report.bound}), "
            f"verified={report.verify_ok}",
            report.verify_ok)


def _cmd_verify_cert(args):
    cert = _read_cert(args.cert)
    w = _read_word(args.word)
    if isinstance(cert, AttackCertificate):
        ok = verify_attack_structure(w, cert.n, cert.k, cert)
        kind = "attack"
    else:
        m = args.m if args.m is not None else len(cert.subalphabet)
        ok = verify_structure(w, cert, m)
        kind = "structure"
    return ({"word": args.word or "-", "cert": args.cert, "m": args.m},
            {"kind": kind, "ok": ok}, f"{kind} certificate: {'OK' if ok else 'REJECTED'}", ok)


def _cmd_verify_collision(args):
    oracle, sched, h0, mc = _read_collision(args.mc)
    outcome = verify_multicollision(oracle, sched, h0, mc, cap=args.cap)
    return ({"mc": args.mc, "cap": args.cap},
            {"ok": outcome.ok, "complete": outcome.complete, "checked": outcome.checked,
             "digest": outcome.digest},
            f"multicollision: {'OK' if outcome.ok else 'REJECTED'} "
            f"({outcome.checked} messages{'' if outcome.complete else ', sampled'})",
            outcome.ok)


# -- parser --------------------------------------------------------------------

def _add_seed(parser: argparse.ArgumentParser) -> None:
    # argparse converts a string default with `type`, so a non-integer
    # variable is a usage error
    default = os.environ.get(SEED_ENV_VAR) or None
    parser.add_argument("--seed", type=int, default=default, required=default is None,
                        help=f"run seed (or set {SEED_ENV_VAR})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gihflab",
        description="Bounded-word regularity certificates and multicollision "
                    "attacks on simulated iterated hash functions.")
    sub = parser.add_subparsers(dest="group", required=True)

    classics = sub.add_parser("classics", help="classical regularity finders")
    classics_sub = classics.add_subparsers(dest="command", required=True)
    cadence = classics_sub.add_parser("cadence", help="arithmetic cadence finder")
    cadence.add_argument("--s", type=int, required=True, help="cadence order")
    cadence.add_argument("--input", help="word file (default stdin)")
    cadence.set_defaults(func=_cmd_classics_cadence)
    ndiv = classics_sub.add_parser("ndiv", help="n-division finder")
    ndiv.add_argument("--n", type=int, required=True, help="factor count")
    ndiv.add_argument("--input", help="word file (default stdin)")
    ndiv.set_defaults(func=_cmd_classics_ndiv)

    regularity = sub.add_parser("regularity", help="structure certificates")
    regularity_sub = regularity.add_subparsers(dest="command", required=True)
    find = regularity_sub.add_parser("find", help="search for a certificate")
    find.add_argument("--m", type=int, required=True)
    find.add_argument("--q", type=int, required=True)
    find.add_argument("--mode", choices=["exhaustive", "greedy"], default="exhaustive")
    find.add_argument("--input", help="word file (default stdin)")
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
    attack_structure = nesting_sub.add_parser("attack-structure")
    attack_structure.add_argument("--n", type=int, required=True)
    attack_structure.add_argument("--k", type=int, required=True)
    attack_structure.add_argument("--q", type=int, required=True)
    attack_structure.add_argument("--input", help="word file (default stdin)")
    attack_structure.set_defaults(func=_cmd_nesting_attack_structure)

    hashsim = sub.add_parser("hashsim", help="oracle simulation baselines")
    hashsim_sub = hashsim.add_subparsers(dest="command", required=True)
    birthday = hashsim_sub.add_parser("birthday", help="k-collision birthday search")
    birthday.add_argument("--n", type=int, required=True)
    birthday.add_argument("--m", type=int, required=True)
    birthday.add_argument("--k", type=int, default=2)
    birthday.add_argument("--trials", type=int, default=1)
    birthday.add_argument("--h0", type=int, default=0)
    _add_seed(birthday)
    birthday.set_defaults(func=_cmd_hashsim_birthday)

    attack = sub.add_parser("attack", help="multicollision attacks")
    attack_sub = attack.add_subparsers(dest="command", required=True)
    joux = attack_sub.add_parser("joux", help="classic chained pair collisions")
    joux.add_argument("--n", type=int, required=True)
    joux.add_argument("--m", type=int, required=True)
    joux.add_argument("--r", type=int, required=True)
    joux.add_argument("--trials", type=int, default=1)
    joux.add_argument("--h0", type=int, default=0)
    joux.add_argument("--mc-out", help="write the first trial's multicollision JSON here")
    _add_seed(joux)
    joux.set_defaults(func=_cmd_attack_joux)
    gihf = attack_sub.add_parser("gihf", help="generalized q-bounded attack")
    gihf.add_argument("--n", type=int, required=True)
    gihf.add_argument("--m", type=int, required=True)
    gihf.add_argument("--q", type=int, required=True)
    gihf.add_argument("--r", type=int, required=True)
    gihf.add_argument("--schedule", choices=["identity", "mirror", "file"],
                      default="mirror")
    gihf.add_argument("--schedule-file", help="word file with one schedule word per line")
    gihf.add_argument("--h0", type=int, default=0)
    gihf.add_argument("--mc-out", help="write the multicollision JSON here")
    _add_seed(gihf)
    gihf.set_defaults(func=_cmd_attack_gihf)

    verify = sub.add_parser("verify", help="re-check certificates and collisions")
    verify_sub = verify.add_subparsers(dest="command", required=True)
    cert = verify_sub.add_parser("cert", help="structure or attack certificate")
    cert.add_argument("--word", help="word file (default stdin)")
    cert.add_argument("--cert", required=True, help="certificate JSON file")
    cert.add_argument("--m", type=int, help="subalphabet size (structure certificates)")
    cert.set_defaults(func=_cmd_verify_cert)
    collision = verify_sub.add_parser("collision", help="multicollision JSON file")
    collision.add_argument("--mc", required=True)
    collision.add_argument("--cap", type=int, default=1 << 16,
                           help="most (live picks, state) pairs the one-pass check may "
                                "hold; a larger set is sampled with this many messages")
    collision.set_defaults(func=_cmd_verify_collision)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    command = f"{args.group} {args.command}"
    started = time.time()
    try:
        config, result, summary, ok = args.func(args)
    except (OSError, ValueError) as exc:
        config = {k: v for k, v in vars(args).items() if k not in ("group", "command", "func")}
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
