"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solve-ref --seeds 1 2 3 4 5 \
        [--seconds 36] [--trace 0]

For every metric it prints the median of the runs, the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median, and for end-to-end metrics that share against a third of the
bound in BENCHMARK.json.  Runs one benchmark process at a time from the
repository root; the result lines are appended to FILE when --log is given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", default=None,
                    help="append each run's result line to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    steady = True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "trace": args.trace,
                                         "result": line}) + "\n")
            result = json.loads(line) if proc.returncode == 0 else {}
            if not result.get("correct"):
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})\n{proc.stderr}")
                steady = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(args.seeds)} seeds, {seconds} s per run")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else 0.0
            verdict = ""
            if name in bounds:
                ok = share < bounds[name] / 3
                steady &= ok
                verdict = (f"  bound {bounds[name]:g}: "
                           + ("ok" if ok else "TOO WIDE"))
            print(f"  {name:42s} median {med:12.6g}  spread "
                  f"{share:7.2%}{verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
