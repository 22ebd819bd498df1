/**
 * @file
 * dream_prof: read telemetry event traces (`bench --trace-events
 * DIR`, Chrome trace-event JSON) and print per-accelerator
 * utilization and scheduler tables per grid point, and metrics dumps
 * (`--metrics FILE`) for the serve-telemetry and cost-table cache
 * tables. `--check` validates only (array shape, required fields,
 * non-decreasing timestamps per track) and prints one OK line per
 * file — the CI trace gate. Inputs are trace files or directories
 * (scanned for *.trace.json). Exits 0 when every input is valid, 1
 * on any validation/parse failure, 2 on usage errors.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tools/trace_prof.h"
#include "util/flags.h"

using namespace dream;

namespace {

bool
isTraceFile(const std::string& path)
{
    static const std::string kSuffix = ".trace.json";
    return path.size() >= kSuffix.size() &&
           path.compare(path.size() - kSuffix.size(),
                        kSuffix.size(), kSuffix) == 0;
}

/** Expand files/directories into a sorted trace-file list. */
std::vector<std::string>
collectInputs(const std::vector<std::string>& paths)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const auto& path : paths) {
        if (fs::is_directory(path)) {
            std::vector<std::string> found;
            for (const auto& entry : fs::directory_iterator(path)) {
                if (entry.is_regular_file() &&
                    isTraceFile(entry.path().string()))
                    found.push_back(entry.path().string());
            }
            if (found.empty())
                throw std::runtime_error(
                    "no *.trace.json files in directory: " + path);
            std::sort(found.begin(), found.end());
            files.insert(files.end(), found.begin(), found.end());
        } else {
            files.push_back(path);
        }
    }
    return files;
}

} // anonymous namespace

int
main(int argc, char** argv)
{
    bool check_only = false;
    std::vector<std::string> paths;
    std::vector<std::string> metrics_paths;
    flags::Table table(
        "PATH is a .trace.json file, or a directory scanned for\n"
        "*.trace.json (the layout bench --trace-events DIR writes).\n"
        "Without --check, prints per-accelerator utilization and\n"
        "scheduler decision-latency tables for every point");
    table.add({"--check", "", "",
               "validate only: parse every file, check the event shape\n"
               "and per-track timestamp monotonicity, print one OK line\n"
               "per file; exit 1 on the first failure",
               flags::set(&check_only)});
    table.add({"--metrics", "", "FILE",
               "a metrics JSON dump (bench --metrics-full F or\n"
               "dream_serve --metrics F); prints the cost-table cache\n"
               "efficiency table and, for serve dumps, the rolling\n"
               "latency/SLO telemetry table (repeatable)",
               flags::append(&metrics_paths)});
    table.positionals("[PATH...]", &paths, 0);
    table.check([&] {
        if (paths.empty() && metrics_paths.empty())
            throw flags::Error("no trace or metrics files given");
    });
    table.parse(argc, argv);

    std::vector<std::string> files;
    try {
        files = collectInputs(paths);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dream_prof: %s\n", e.what());
        return 2;
    }

    // Traces first, then metrics dumps, each in command-line order.
    std::vector<std::pair<std::string, bool>> inputs; // (path, metrics?)
    for (const auto& file : files)
        inputs.push_back({file, false});
    for (const auto& file : metrics_paths)
        inputs.push_back({file, true});

    bool first = true;
    for (const auto& [file, is_metrics] : inputs) {
        std::string summary, report;
        try {
            if (is_metrics) {
                const obs::MetricsRegistry metrics =
                    tools::readMetricsJson(file);
                summary = std::to_string(metrics.counters().size()) +
                          " counters";
                // Serve dumps lead with their telemetry table; every
                // dump gets the cache-efficiency table.
                if (!check_only)
                    report = tools::serveReport(metrics) +
                             tools::cacheReport(metrics);
            } else {
                const tools::TraceProfile profile =
                    tools::readTraceEventJson(file);
                summary = std::to_string(profile.eventCount) +
                          " events, " +
                          std::to_string(profile.points.size()) +
                          " points";
                if (!check_only)
                    report = tools::profileReport(profile);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "dream_prof: %s\n", e.what());
            return 1;
        }
        if (check_only) {
            std::printf("OK %s (%s)\n", file.c_str(), summary.c_str());
            continue;
        }
        if (!first)
            std::printf("\n");
        first = false;
        std::printf("--- %s ---\n", file.c_str());
        std::fputs(report.c_str(), stdout);
    }
    return 0;
}
