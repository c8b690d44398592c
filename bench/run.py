"""Benchmark of gihflab: one closed-loop caller, one workload per process.

    python3 bench/run.py --workload gihf_q2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Builds nothing: it runs the library from src/ of the checkout it sits in.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1); every metric is also printed to stderr by
name with its unit.  Details, including the spans of a traced run, go to
.bench_out/ at the checkout root.  `--workload all` runs every workload in
its own child process and prints one result line per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
NAMES = ("gihf_q2", "joux_n24", "verify_cli", "boundary_scan")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _run_all(args) -> int:
    status = 0
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if child.returncode != 0:
            print(f"{name}: exit {child.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(child.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "gihflab" / "__init__.py").is_file() or not (ROOT / "tests" / "support.py").is_file():
        print(f"bench: no gihflab checkout around {BENCH}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import gihflab
    if Path(gihflab.__file__).resolve().parent != src / "gihflab":
        print(f"bench: imported gihflab from {gihflab.__file__}, not {src}", file=sys.stderr)
        return 2
    from measure import measure

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir=ROOT / ".bench_out")
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload} fail_frac {details['fail_frac']:.6g} ratio", file=sys.stderr)
    if "op_tail" in details:
        tail = details["op_tail"]
        print(f"{args.workload} op_tail_s is p{tail['percentile']:g} of {tail['samples']} ops, "
              f"{tail['beyond']} beyond it", file=sys.stderr)
    for reason, count in sorted(details["failures"].items()):
        print(f"{args.workload} failed x{count}: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
