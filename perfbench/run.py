#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload cf_sort --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench/ (the cfmerge library from
src/ plus the harness) into .bench_build/perfbench, then runs one workload.
With --trace 0 it first starts the harness SETUP_PROBES times in set-up-only
mode and reports setup_s as the median over those processes and the measured
one.  The harness's lines are passed through; the last line of stdout is the
result object.  Exits non-zero without a result when the build or the run
fails.  See perfbench/METRICS.md for the workloads and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SETUP_PROBES = 4
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def harness(args, extra):
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["cf_sort", "baseline_sort", "mixed_small"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build()
    setup = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            setup.append(harness(args, ["--setup-only"])[1]["setup_s"])
    spans = BUILD / f"spans-{args.workload}-seed{args.seed}.json"
    lines, result = harness(args, [f"--spans={spans}"])
    for line in lines:
        print(line)
    if args.trace == 0:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        print(json.dumps({"setup_samples_s": setup}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
