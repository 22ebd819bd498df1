/**
 * @file
 * perfbench: the repo benchmark. One invocation runs one workload in
 * this process and prints its metrics, one per line with units, then
 * a one-line JSON result as the last line of stdout:
 *
 *   perfbench --workload sweep|overload|cluster --seed N
 *             --seconds S --trace 0|1 [--spans FILE]
 *
 * --trace 0 is the end-to-end run (the metrics users see); --trace 1
 * is the separate traced run that reports per-layer metrics and, with
 * --spans, writes its span file. perfbench/README.md documents every
 * workload and metric. Exit status: 0 when every correctness gate
 * passed, 1 when one failed, 2 on a usage error.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

using namespace perfbench;

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// The metric tables. BENCHMARK.json at the repo root lists the same
// names and units; perfbench/run.py checks the two agree.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"frames_per_s", "frames/s"},
    {"points_per_s", "points/s"},
    {"peak_rss_mb", "MB"},
    {"uxcost", "score"},
    {"violation_rate", "fraction"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workload.generate_ms", "ms"},
    {"workload.materialise_ms", "ms"},
    {"workload.root_frames", "frames"},
    {"costmodel.acquire_ms", "ms"},
    {"costmodel.tables_built", "tables"},
    {"costmodel.hit_frac", "fraction"},
    {"sched.plan_calls", "calls"},
    {"sched.plan_ns_p50", "ns"},
    {"sched.plan_ns_p99", "ns"},
    {"sched.busy_frac", "fraction"},
    {"sched.decisions", "decisions"},
    {"sched.decision_us_p50", "us"},
    {"sched.decision_us_p99", "us"},
    {"sched.rounds_per_decision", "calls/decision"},
    {"sched.useful_round_frac", "fraction"},
    {"sched.live_mean", "frames"},
    {"sched.live_max", "frames"},
    {"sched.ready_mean", "frames"},
    {"sched.dispatches", "count"},
    {"sched.drops", "count"},
    {"sched.switches", "count"},
    {"sim.round_gaps", "count"},
    {"sim.round_gap_ns_p50", "ns"},
    {"sim.round_gap_ns_p99", "ns"},
    {"sim.gap_frac", "fraction"},
    {"sim.frames_retained", "frames"},
    {"sim.rss_kb_per_frame", "KB/frame"},
    {"sim.accel_util", "fraction"},
    {"sim.context_switches", "count"},
    {"sim.latency_samples", "frames"},
    {"sim.frame_latency_us_p50", "us"},
    {"sim.frame_latency_us_p99", "us"},
    {"serve.self_frac", "fraction"},
    {"serve.admitted", "frames"},
    {"serve.degraded", "frames"},
    {"serve.rejected", "frames"},
    {"serve.fairness_spread", "ratio"},
    {"engine.points", "points"},
    {"engine.point_ms_p50", "ms"},
    {"engine.point_ms_p99", "ms"},
    {"engine.busy_frac", "fraction"},
    {"micro.batches", "batches"},
    {"micro.context_live", "frames"},
    {"costmodel.lookup_ns_min", "ns"},
    {"costmodel.lookup_ns", "ns"},
    {"costmodel.lookup_ns_p99", "ns"},
    {"sched.mapscore_ns_min", "ns"},
    {"sched.mapscore_ns", "ns"},
    {"sched.mapscore_ns_p99", "ns"},
    {"serve.admit_ns_min", "ns"},
    {"serve.admit_ns", "ns"},
    {"serve.admit_ns_p99", "ns"},
    {"serve.route_ns_min", "ns"},
    {"serve.route_ns", "ns"},
    {"serve.route_ns_p99", "ns"},
    {"obs.hooks_slowdown", "x"},
    {"metrics.reduction_vs_planaria", "fraction"},
    {"metrics.reduction_vs_veltair", "fraction"},
    {"bench.trace_overhead", "x"},
    {"bench.spans", "spans"},
};

[[noreturn]] void
usage(const std::string& what)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload sweep|overload|cluster "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                 what.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        char* end = nullptr;
        errno = 0;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || errno == ERANGE ||
                value[0] == '-')
                usage("malformed --seed '" + value + "'");
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(opts.seconds > 0.0))
                usage("malformed --seconds '" + value + "'");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            opts.trace = value == "1";
        } else if (arg == "--spans") {
            opts.spanFile = value;
        } else {
            usage("unknown flag '" + arg + "'");
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    return opts;
}

/** All digits of a double, as JSON (non-finite values read 0). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    const Options opts = parseArgs(argc, argv);
    Outcome (*run)(const Options&) = nullptr;
    if (opts.workload == "sweep")
        run = runSweep;
    else if (opts.workload == "overload")
        run = runOverload;
    else if (opts.workload == "cluster")
        run = runCluster;
    else
        usage("unknown workload '" + opts.workload + "'");

    Outcome out;
    try {
        out = run(opts);
    } catch (const std::exception& e) {
        out.attempted = std::max<uint64_t>(out.attempted, 1);
        out.gate(false, std::string("workload threw: ") + e.what());
    }
    out.attempted = std::max<uint64_t>(out.attempted, 1);

    const auto& table = opts.trace ? kPerLayer : kEndToEnd;
    for (const auto& kv : out.values) {
        bool known = false;
        for (const auto& def : table)
            known = known || kv.first == def.name;
        if (!known)
            out.gate(false, "unlisted metric " + kv.first);
    }

    std::printf("\n== perfbench %s, seed %llu, %s run ==\n",
                opts.workload.c_str(), (unsigned long long) opts.seed,
                opts.trace ? "traced (per-layer)" : "end-to-end");
    std::string json = "{";
    for (size_t i = 0; i < table.size(); ++i) {
        // A layer this workload does not exercise reads 0 in the
        // JSON and "n/a" here.
        const auto it = out.values.find(table[i].name);
        const double v = it == out.values.end() ? 0.0 : it->second;
        if (it == out.values.end())
            std::printf("%-32s %16s  %s\n", table[i].name, "n/a",
                        table[i].unit);
        else
            std::printf("%-32s %16.6g  %s\n", table[i].name, v,
                        table[i].unit);
        json += std::string(i ? ", " : "") + "\"" + table[i].name +
                "\": {\"value\": " + jsonNumber(v) + ", \"unit\": \"" +
                table[i].unit + "\"}";
    }
    json += "}";
    const double error_rate =
        double(out.failed) / double(out.attempted);
    std::printf("%-32s %16.6g  fraction (%llu of %llu operations)\n",
                "error_rate", error_rate,
                (unsigned long long) out.failed,
                (unsigned long long) out.attempted);
    for (const auto& f : out.failures)
        std::printf("GATE FAILED: %s\n", f.c_str());

    const bool correct = out.failures.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long) out.attempted,
                (unsigned long long) out.failed, json.c_str());
    return correct ? 0 : 1;
}
