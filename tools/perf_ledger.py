#!/usr/bin/env python3
"""Record perfbench runs in the perf ledger and compare two labels.

Usage, from the repo root:

    python3 perfbench/run.py --workload overload --seed 4 --seconds 10 \\
        --trace 0 > run.txt
    python3 tools/perf_ledger.py append --label parent --commit SHA \\
        [--src-tree TREE] --seconds 10 \\
        --cxx-flags "-falign-functions=64 -falign-loops=32" run.txt ...
    python3 tools/perf_ledger.py compare parent change
    python3 tools/perf_ledger.py check perf/ledger.jsonl

The ledger (perf/ledger.jsonl by default, --ledger FILE otherwise)
holds one JSON object per run:
  label;
  commit, the commit the tested tree was taken from (for an
    uncommitted change, its parent);
  src_tree, the git tree id of the src/ that perfbench built: the
    commit's own (git rev-parse SHA:src) unless --src-tree names
    another, such as git rev-parse "$(git write-tree):src" over a
    staged change;
  workload, seed, seconds, trace, nproc (of the host that appends),
    cxx_flags;
  finished, the UTC time the run's output file was last written,
    which orders the runs;
  result, the run's one-line JSON result exactly as perfbench
    printed it.
append reads perfbench stdout files through the reader of
tools/ci/check_perfbench_counts.py.

compare A B pairs each end-to-end run of A with B's run of the same
workload and seed (the k-th run of a seed with the k-th; a run with
no partner is left out) and prints, per workload and per end-to-end
metric of BENCHMARK.json, each label's quartiles over its paired
runs, the pairs B wins (ties count for neither), the median move
relative to A and as a fraction of the metric's bound, and a
verdict: "unresolved" when A's own interquartile range exceeds the
bound (unless every run of B beats every run of A), "WORSE" when B's
median is worse by more than the bound, "better" when B wins at
least 9 of at least 10 pairs and its median gap exceeds A's
interquartile range, and "within bound" otherwise. It then prints,
per seed both labels ran, the deltas of the counts the perfbench
count golden gates.

check FILE exits 1 unless every line parses, names its commit and
src_tree by full git ids, has a UTC finished time, names a workload
of BENCHMARK.json and carries every metric BENCHMARK.json lists for
its mode (end_to_end for --trace 0, per_layer for --trace 1).

Exit status: 0 on success, 1 on a failed check, 2 on a usage error.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(HERE, "ci"))
import check_perfbench_counts as counts  # noqa: E402

LEDGER = os.path.join("perf", "ledger.jsonl")
FIELDS = {"label": str, "commit": str, "src_tree": str,
          "workload": str, "seed": int, "seconds": (int, float),
          "trace": int, "nproc": int, "cxx_flags": str, "finished": str}
GIT_ID = re.compile(r"[0-9a-f]{40}")
TIME = "%Y-%m-%dT%H:%M:%SZ"
MIN_PAIRS = 10
WIN_SHARE = 0.9
ROW = "  {:15}" + " {:>14}" * 6 + " {:>6} {:>8} {:>8}  {}"


def usage_error(message):
    print(f"perf_ledger: {message}", file=sys.stderr)
    sys.exit(2)


def benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        usage_error(f"{path}: {e}")


def validate(path, spec):
    """([entry], [(line number, problem)]) of the ledger at @p path."""
    workloads = {w["name"] for w in spec["workloads"]}
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    entries, problems = [], []
    try:
        with open(path) as f:
            lines = [(n, line) for n, line in enumerate(f, 1)
                     if line.strip()]
    except OSError as e:
        usage_error(f"{path}: {e.strerror}")
    for number, line in lines:
        try:
            entry = json.loads(line)
        except ValueError as e:
            problems.append((number, f"not JSON: {e}"))
            continue
        if not isinstance(entry, dict):
            problems.append((number, "not a JSON object"))
            continue
        missing = [k for k, t in FIELDS.items()
                   if not isinstance(entry.get(k), t)
                   or isinstance(entry.get(k), bool)]
        if missing:
            problems.append(
                (number, f"missing or mistyped: {', '.join(missing)}"))
            continue
        bad_ids = [k for k in ("commit", "src_tree")
                   if not GIT_ID.fullmatch(entry[k])]
        if bad_ids:
            problems.append(
                (number, f"not a full git id: {', '.join(bad_ids)}"))
            continue
        try:
            datetime.datetime.strptime(entry["finished"], TIME)
        except ValueError:
            problems.append((number, f"finished is not {TIME}"))
            continue
        if entry["workload"] not in workloads:
            problems.append(
                (number, f"unknown workload {entry['workload']!r}"))
            continue
        if entry["trace"] not in wanted:
            problems.append(
                (number, f"trace is {entry['trace']}, not 0 or 1"))
            continue
        result = entry.get("result")
        metrics = result.get("metrics") if isinstance(result, dict) \
            else None
        if not isinstance(metrics, dict):
            problems.append((number, "no result metrics"))
            continue
        absent = [m for m in wanted[entry["trace"]]
                  if not isinstance(metrics.get(m), dict)
                  or not isinstance(metrics[m].get("value"), (int, float))]
        if absent:
            problems.append((number, f"no value for {', '.join(absent)}"))
            continue
        entries.append(entry)
    if not lines:
        problems.append((0, "no runs"))
    return entries, problems


def src_tree_of(commit):
    """The git tree id of @p commit's src/."""
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", f"{commit}:src"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as e:
        usage_error(f"cannot read the src/ tree of {commit}: {e}")


def append(args):
    for flag, given in (("--commit", args.commit),
                        ("--src-tree", args.src_tree)):
        if given and not GIT_ID.fullmatch(given):
            usage_error(f"{flag} must be a full 40-digit git id")
    src_tree = args.src_tree or src_tree_of(args.commit)
    lines = []
    for path in args.outputs:
        workload, seed, kind, result, raw = counts.read_run(path)
        if not result.get("correct") or result.get("failed"):
            usage_error(f"{path}: the run's correctness gates failed")
        finished = datetime.datetime.fromtimestamp(
            os.path.getmtime(path), datetime.timezone.utc)
        head = {"label": args.label, "commit": args.commit,
                "src_tree": src_tree, "workload": workload,
                "seed": seed, "seconds": args.seconds,
                "trace": 1 if kind == "traced" else 0,
                "nproc": os.cpu_count() or 1,
                "cxx_flags": args.cxx_flags,
                "finished": finished.strftime(TIME)}
        lines.append(json.dumps(head)[:-1] + ', "result": ' + raw + "}")
    os.makedirs(os.path.dirname(args.ledger) or ".", exist_ok=True)
    with open(args.ledger, "a") as f:
        f.write("".join(line + "\n" for line in lines))
    return 0


def check(args):
    entries, problems = validate(args.ledger, benchmark())
    for number, problem in problems:
        print(f"{args.ledger}:{number}: {problem}")
    if problems:
        return 1
    print(f"perf_ledger: {args.ledger}: {len(entries)} runs OK")
    return 0


def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def runs_of(entries, label, trace):
    """{workload: [entry]} of @p label's runs at @p trace."""
    out = {}
    for entry in entries:
        if entry["label"] == label and entry["trace"] == trace:
            out.setdefault(entry["workload"], []).append(entry)
    return out


def value(entry, metric):
    return entry["result"]["metrics"][metric]["value"]


def paired(a_runs, b_runs):
    """[(a, b)]: the k-th run of a seed in @p a_runs with the k-th run
    of that seed in @p b_runs; a run with no partner is left out."""
    b_by_seed = {}
    for entry in b_runs:
        b_by_seed.setdefault(entry["seed"], []).append(entry)
    pairs, used = [], {}
    for entry in a_runs:
        seed = entry["seed"]
        k = used.get(seed, 0)
        if k < len(b_by_seed.get(seed, [])):
            pairs.append((entry, b_by_seed[seed][k]))
            used[seed] = k + 1
    return pairs


def compare_metric(metric, run_pairs):
    name, bound = metric["name"], metric["bound"]
    higher = metric["better"] == "higher"
    pairs = [(value(x, name), value(y, name)) for x, y in run_pairs]
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    qa, qb = quartiles(a), quartiles(b)
    wins = sum((y > x) if higher else (y < x) for x, y in pairs)
    scale = abs(qa[1]) or 1.0
    move = (qb[1] - qa[1]) / scale
    gain = move if higher else -move
    b_beats_all = (min(b) > max(a)) if higher else (max(b) < min(a))
    if (qa[2] - qa[0]) / scale > bound and not b_beats_all:
        verdict = "unresolved"
    elif gain < -bound:
        verdict = "WORSE"
    elif (gain > 0 and len(pairs) >= MIN_PAIRS and
          wins >= WIN_SHARE * len(pairs) and
          abs(qb[1] - qa[1]) > qa[2] - qa[0]):
        verdict = "better"
    else:
        verdict = "within bound"
    print(ROW.format(name, *(f"{q:.6g}" for q in qa + qb),
                     f"{wins}/{len(pairs)}", f"{move:+.2%}",
                     f"{gain / bound:+.2f}", verdict))


def compare(args):
    spec = benchmark()
    if not os.path.exists(args.ledger):
        usage_error(f"{args.ledger}: no such ledger")
    entries, problems = validate(args.ledger, spec)
    if problems:
        usage_error(f"{args.ledger}:{problems[0][0]}: {problems[0][1]}")
    a_e2e, b_e2e = (runs_of(entries, x, 0) for x in (args.a, args.b))
    both = sorted(set(a_e2e) & set(b_e2e))
    if not both:
        usage_error(f"no workload has end-to-end runs of both "
                    f"{args.a!r} and {args.b!r}")
    for workload in both:
        a_runs, b_runs = a_e2e[workload], b_e2e[workload]
        run_pairs = paired(a_runs, b_runs)
        alone = len(a_runs) + len(b_runs) - 2 * len(run_pairs)
        print(f"== {workload}: A = {args.a}, B = {args.b}, "
              f"{len(run_pairs)} pairs by seed, "
              f"{alone} runs without a partner left out ==")
        if not run_pairs:
            continue
        print(ROW.format("metric", *(f"{side} {q}" for side in "AB"
                                     for q in ("q1", "median", "q3")),
                         "B wins", "move", "of bound", "verdict"))
        for metric in spec["end_to_end"]:
            compare_metric(metric, run_pairs)

    # The counts the golden gates, per seed both labels ran.
    gated = counts.EXACT + counts.TOLERANT
    for workload in sorted(set(a_e2e) | set(runs_of(entries, args.a, 1))):
        for seed in sorted({e["seed"] for e in entries
                            if e["workload"] == workload}):
            rows = []
            for metric, kind in gated:
                trace = 1 if kind == "traced" else 0
                got = []
                for label in (args.a, args.b):
                    runs = [e for e in runs_of(entries, label, trace)
                            .get(workload, []) if e["seed"] == seed]
                    got.append(value(runs[0], metric) if runs else None)
                if None not in got:
                    rows.append((metric, got[0], got[1]))
            if not rows:
                continue
            moved = sum(x != y for _, x, y in rows)
            print(f"== {workload} seed {seed}: gated counts, "
                  f"{moved} of {len(rows)} moved ==")
            for metric, x, y in rows:
                print(f"  {metric:24} {x!r:>22} {y!r:>22} {y - x:+.6g}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("append", help="append perfbench runs")
    p.add_argument("--ledger", default=LEDGER)
    p.add_argument("--label", required=True)
    p.add_argument("--commit", required=True)
    p.add_argument("--src-tree", default="")
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--cxx-flags", default="")
    p.add_argument("outputs", nargs="+")
    p.set_defaults(run=append)

    p = sub.add_parser("compare", help="compare label B against A")
    p.add_argument("--ledger", default=LEDGER)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(run=compare)

    p = sub.add_parser("check", help="validate a ledger")
    p.add_argument("ledger")
    p.set_defaults(run=check)

    args = parser.parse_args()
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
