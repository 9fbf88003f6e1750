#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread on one machine.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload guardian_pool --runs 10 [--seconds 10] [--first-seed 1]

Runs ``perfbench/run.py`` once per seed (seeds ``first-seed ..
first-seed + runs - 1``) and prints, for every end-to-end metric, the
median of the runs and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that
median, next to the metric's bound from ``BENCHMARK.json``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {out.returncode})", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()))
    print(f"{'metric':<18} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        share = (q[2] - q[0]) / med if med else float("inf")
        print(f"{metric['name']:<18} {med:>14.6g} {share:>11.4f} {metric['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
