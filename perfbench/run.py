#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <zone_fleet|scheme_vm|guardian_pool> \
        --seed <n> --seconds <s> --trace <0|1> [--fault <name>]

The package in this directory is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run. Its standard
output is passed through: a stamp line (host fingerprint, seed, sizes,
sample counts) and, last, the result object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A traced run also writes its
spans to ``<target>/perfbench-out/``. The exit code is the benchmark's:
0 when every oracle passed, 1 when one failed, 2 on a usage error or
when the repository's crates are not there to build.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("zone_fleet", "scheme_vm", "guardian_pool")
FAULTS = ("skip-close", "corrupt-expected", "extra-open")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=FAULTS)
    args = ap.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 120:
        print("perfbench: need --seed >= 0 and 0 <= --seconds <= 120", file=sys.stderr)
        return 2

    bench = pathlib.Path(__file__).resolve().parent
    if not (bench.parent / "crates").is_dir():
        print(
            f"perfbench: {bench.parent / 'crates'} is missing; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(bench / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 2

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(target / "perfbench-out"),
    ]
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        ran = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        return 2
    sys.stdout.write(ran.stdout)
    sys.stdout.flush()
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
