#!/usr/bin/env python3
"""Gate perfbench's deterministic counts against a committed golden.

Usage, from the repo root:

    python3 perfbench/run.py --workload overload --seed 1 --seconds 1 \\
        --trace 1 > overload-trace1.txt
    ...
    python3 tools/ci/check_perfbench_counts.py \\
        --golden tools/ci/perfbench_counts.golden.json OUTPUT...
    python3 tools/ci/check_perfbench_counts.py --write \\
        --golden tools/ci/perfbench_counts.golden.json OUTPUT...

Each OUTPUT is the stdout of one perfbench run. Its header line
("== perfbench W, seed N, ... run ==") names the workload and the run
kind, and its last line is the one-line JSON result. The golden holds,
per workload, the integer counts of the traced run (compared exactly)
and four floating-point values (compared at 1e-6 relative tolerance,
the FP-contraction allowance of the hard_v1 gate): the traced run's
mean live and ready set sizes and the end-to-end run's uxcost and
violation rate. Wall-clock numbers are printed for the log and never
gated. --write records the golden from the outputs instead.

Exit status: 0 when every value matches, 1 on a mismatch, a missing
run or a run whose correctness gates failed, 2 on a usage error.
"""

import argparse
import json
import re
import sys

SCHEMA = "dream-perfbench-counts-v1"
REL_TOL = 1e-6

# (metric, run kind): "traced" is --trace 1, "end_to_end" --trace 0.
EXACT = [(name, "traced") for name in (
    "sched.plan_calls", "sched.decisions", "sched.live_max",
    "sched.dispatches", "sched.drops", "sched.switches",
    "sim.frames_retained", "sim.context_switches",
    "serve.admitted", "serve.degraded", "serve.rejected")]
TOLERANT = [("sched.live_mean", "traced"), ("sched.ready_mean", "traced"),
            ("uxcost", "end_to_end"), ("violation_rate", "end_to_end")]
WALL_CLOCK = [("frames_per_s", "end_to_end"),
              ("points_per_s", "end_to_end"),
              ("sched.plan_ns_p50", "traced"),
              ("sched.decision_us_p50", "traced"),
              ("sim.round_gap_ns_p50", "traced")]

HEADER = re.compile(r"^== perfbench (\w+), seed (\d+), (.*) run ==$")


def usage_error(message):
    print(f"check_perfbench_counts: {message}", file=sys.stderr)
    sys.exit(2)


def read_run(path):
    """(workload, seed, kind, result, result line) of one perfbench
    output file; the line is the JSON result as the run printed it."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        usage_error(f"{path}: {e.strerror}")
    header = [m for m in map(HEADER.match, lines) if m]
    if len(header) != 1 or not lines:
        usage_error(f"{path}: not the output of one perfbench run")
    workload, seed, kind = header[0].groups()
    kind = "end_to_end" if kind == "end-to-end" else "traced"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        usage_error(f"{path}: the last line is not the JSON result")
    return workload, int(seed), kind, result, lines[-1]


def collect(paths):
    """{workload: {kind: result}} and the one seed of all runs."""
    runs, seeds, failed = {}, set(), False
    for path in paths:
        workload, seed, kind, result, _ = read_run(path)
        seeds.add(seed)
        if kind in runs.setdefault(workload, {}):
            usage_error(f"{path}: a second {kind} run of {workload}")
        if not result.get("correct") or result.get("failed"):
            print(f"FAIL {workload} ({kind}): the run's correctness "
                  f"gates failed ({path})")
            failed = True
        runs[workload][kind] = result
    if len(seeds) != 1:
        usage_error(f"the runs mix seeds {sorted(seeds)}")
    return runs, seeds.pop(), failed


def value(runs, workload, metric, kind):
    result = runs.get(workload, {}).get(kind)
    if result is None:
        return None
    return result["metrics"][metric]["value"]


def golden_of(runs, seed):
    workloads = {}
    for workload in sorted(runs):
        entry = {}
        for metric, kind in EXACT + TOLERANT:
            v = value(runs, workload, metric, kind)
            if v is None:
                usage_error(f"{workload}: no {kind} run to record")
            entry[metric] = int(v) if (metric, kind) in EXACT else v
        workloads[workload] = entry
    return {"schema": SCHEMA, "seed": seed, "workloads": workloads}


def matches(metric, kind, want, got):
    if (metric, kind) in EXACT:
        return got == want
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def check(golden, runs, seed):
    ok = True
    if golden.get("schema") != SCHEMA:
        usage_error(f"golden schema is not {SCHEMA}")
    if golden["seed"] != seed:
        print(f"FAIL runs use seed {seed}, the golden seed "
              f"{golden['seed']}")
        ok = False
    for workload, want in sorted(golden["workloads"].items()):
        for metric, kind in EXACT + TOLERANT:
            got = value(runs, workload, metric, kind)
            if got is None:
                print(f"FAIL {workload}: no {kind} run")
                ok = False
                break
            verdict = "ok  " if matches(metric, kind, want[metric],
                                        got) else "FAIL"
            ok = ok and verdict == "ok  "
            print(f"{verdict} {workload:9} {metric:24} "
                  f"golden {want[metric]!r:>22}  got {got!r}")
    for workload in sorted(runs):
        if workload not in golden["workloads"]:
            print(f"FAIL {workload}: not in the golden")
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--golden", required=True)
    parser.add_argument("--write", action="store_true",
                        help="record the golden instead of checking")
    parser.add_argument("outputs", nargs="+")
    args = parser.parse_args()

    runs, seed, failed = collect(args.outputs)
    for workload in sorted(runs):
        for metric, kind in WALL_CLOCK:
            v = value(runs, workload, metric, kind)
            if v is not None:
                print(f"info {workload:9} {metric:24} {v:.6g} "
                      "(wall clock, not gated)")
    if args.write:
        if failed:
            print("not writing a golden from failed runs")
            return 1
        with open(args.golden, "w") as f:
            json.dump(golden_of(runs, seed), f, indent=2, sort_keys=True)
            f.write("\n")
        return 0
    try:
        with open(args.golden) as f:
            golden = json.load(f)
    except (OSError, ValueError) as e:
        usage_error(f"{args.golden}: {e}")
    ok = check(golden, runs, seed) and not failed
    print("perfbench counts match the golden" if ok
          else "perfbench counts differ from the golden")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
