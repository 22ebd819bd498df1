#!/usr/bin/env python3
"""Build the repo benchmark and run one workload.

Run from the repo root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the program's library
from src/ plus the benchmark executable) with CMake into
.bench_build/perfbench; later runs rebuild only what changed. Build
output goes to stderr. The benchmark's own output goes to stdout, and
its last line is the one-line JSON result. --trace 1 also writes the
traced run's span file to .bench_build/spans/. perfbench/README.md
documents the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode, or None
    when the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "overload", "cluster"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")

    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        fail(f"no JSON result line (exit status {run.returncode})")
    expected = expected_metrics(args.trace == "1")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if expected is not None and sorted(got) != sorted(expected):
        print("\n".join(lines[:-1]))
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(expected))}")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
