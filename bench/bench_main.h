/**
 * @file
 * The command line and the one run loop every bench shares. Run a
 * bench with --help for its flags; src/engine/README.md and
 * tools/README.md describe the shard and record -> replay protocols
 * they drive.
 *
 * Parallel runs are bit-identical to --jobs 1: the engine orders
 * records by row before any sink sees them, for full and subset runs
 * alike.
 */

#ifndef DREAM_BENCH_BENCH_MAIN_H
#define DREAM_BENCH_BENCH_MAIN_H

#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/result_sink.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "util/flags.h"

namespace dream {
namespace bench {

/**
 * The --metrics output: the registry the bench's run merges every
 * point's metrics into, written as JSON when the Options go out of
 * scope.
 */
struct MetricsFile {
    std::string path;     ///< --metrics: canonical, volatile excluded
    std::string fullPath; ///< --metrics-full: volatile included
    obs::MetricsRegistry registry;

    ~MetricsFile()
    {
        const auto write = [this](const std::string& p,
                                  bool include_volatile) {
            if (p.empty())
                return;
            std::ofstream out(p);
            if (!out.is_open()) {
                std::fprintf(stderr,
                             "cannot open metrics file for writing: "
                             "%s\n",
                             p.c_str());
                return;
            }
            registry.writeJson(out, include_volatile);
        };
        write(path, false);
        write(fullPath, true);
    }
};

/** Parsed common bench flags. */
struct Options {
    int jobs = 1;          ///< effective worker count (>= 1)
    std::string out;       ///< result CSV path; empty = none
    std::string filter;    ///< grid-point key substring; empty = all
    bool list = false;     ///< print grid point keys and exit
    size_t shard = 0;      ///< --shard K/N: K; 0 without the flag
    size_t shards = 0;     ///< --shard K/N: N; 0 without the flag
    std::string traceDir;  ///< --record-trace dir; empty = none
    std::string traceEventDir; ///< --trace-events dir; empty = none
    std::string metricsPath;   ///< --metrics file; empty = none
    std::string metricsFullPath; ///< --metrics-full file; empty = none

    /**
     * The --metrics registry + file writer, flushed when the Options
     * leave scope. Null without --metrics.
     */
    std::shared_ptr<MetricsFile> metricsFile;

    /** True when only a subset of the points should run (then exit). */
    bool subsetRun() const
    {
        return !filter.empty() || shards > 0;
    }

    /**
     * The half-open positions of a @p total-position selected
     * ordering this invocation runs: --shard K/N as
     * [total(K-1)/N, total K/N), else all of it. Shard ranges tile
     * [0, total) and differ in size by at most one.
     */
    std::pair<size_t, size_t> range(size_t total) const
    {
        if (shards > 0)
            return {total * (shard - 1) / shards, total * shard / shards};
        return {0, total};
    }
};

/**
 * Grid benches take every shared flag. Benches that emit a fixed row
 * sequence outside the engine (fig13, cluster_route) take none of
 * the per-grid-point ones: --filter, --record-trace, --trace-events,
 * --metrics and --metrics-full.
 */
enum class Kind { Grid, Rows };

/** Register the shared bench flags of a @p kind bench on @p table. */
inline void
addFlags(flags::Table& table, Options& opts, Kind kind = Kind::Grid)
{
    const bool grid = kind == Kind::Grid;
    table.add({"--jobs", "-j", "N",
               "worker threads (0 = all cores; default 1)",
               flags::integer(&opts.jobs)});
    table.add({"--out", "", "F", "write engine result rows to F",
               flags::text(&opts.out)});
    table.add({"--list", "", "",
               "print the selected grid point keys; run nothing",
               flags::set(&opts.list)});
    if (grid)
        table.add({"--filter", "", "S",
                   "run only grid points whose key contains S",
                   flags::text(&opts.filter)});
    table.add({"--shard", "", "K/N",
               "run only the K-th of N contiguous ranges of the selected\n"
               "ordering (merge the N files with dream_merge)",
               [&opts](const std::string& v) {
                   const flags::Error want("want K/N with 1 <= K <= N");
                   const size_t slash = v.find('/');
                   if (slash == std::string::npos)
                       throw want;
                   try {
                       opts.shard =
                           flags::parseUint(v.substr(0, slash), 1, INT_MAX);
                       opts.shards = flags::parseUint(v.substr(slash + 1),
                                                      opts.shard, INT_MAX);
                   } catch (const flags::Error&) {
                       throw want;
                   }
               }});
    if (grid) {
        table.add({"--record-trace", "", "DIR",
                   "write each executed grid point's per-frame trace to\n"
                   "DIR (replay with trace_replay, gate with\n"
                   "dream_diff)",
                   flags::nonEmpty(&opts.traceDir)});
        table.add({"--trace-events", "", "DIR",
                   "write each executed grid point's telemetry event\n"
                   "trace (Chrome trace-event JSON) to DIR; open in\n"
                   "Perfetto or profile with dream_prof",
                   flags::nonEmpty(&opts.traceEventDir)});
        table.add({"--metrics", "", "F",
                   "dump the run's merged metrics registry as JSON to F\n"
                   "on exit; byte-identical for any --jobs value",
                   flags::nonEmpty(&opts.metricsPath)});
        table.add({"--metrics-full", "", "F",
                   "like --metrics, plus volatile metrics (wall-times,\n"
                   "cost-cache counters); for dream_prof, not byte-stable",
                   flags::nonEmpty(&opts.metricsFullPath)});
    }
    table.check([&opts] {
        if (opts.jobs == 0)
            opts.jobs = engine::WorkerPool::defaultJobs();
        // Fail up front, not via a worker-thread exception after
        // minutes of sweeping: the directories must be creatable and
        // the metrics files writable. --list runs nothing, so it
        // never truncates a metrics file.
        for (const std::string* dir :
             {&opts.traceDir, &opts.traceEventDir}) {
            std::error_code ec;
            if (!dir->empty())
                std::filesystem::create_directories(*dir, ec);
            if (ec)
                throw flags::Error("cannot create directory " + *dir +
                                   ": " + ec.message());
        }
        if ((opts.metricsPath.empty() && opts.metricsFullPath.empty()) ||
            opts.list)
            return;
        for (const std::string* p :
             {&opts.metricsPath, &opts.metricsFullPath}) {
            if (!p->empty() && !std::ofstream(*p).is_open())
                throw flags::Error(
                    "cannot open metrics file for writing: " + *p);
        }
        opts.metricsFile = std::make_shared<MetricsFile>();
        opts.metricsFile->path = opts.metricsPath;
        opts.metricsFile->fullPath = opts.metricsFullPath;
    });
}

/**
 * Parse a @p kind bench's command line: the shared flags, then the
 * flags and checks @p extras adds (its checks may read the shared
 * Options). Exits 0 on --help and 2 on an error.
 */
inline Options
parseArgs(int argc, char** argv, Kind kind = Kind::Grid,
          const std::function<void(flags::Table&, const Options&)>&
              extras = {})
{
    Options opts;
    flags::Table table;
    addFlags(table, opts, kind);
    if (extras)
        extras(table, opts);
    table.parse(argc, argv);
    return opts;
}

/** CSV sink for --out; null without. Exits with an error if the file
 *  cannot be opened for writing. The run loops open it only when
 *  they run something, so --list never truncates an existing file. */
inline std::unique_ptr<engine::CsvSink>
makeFileSink(const Options& opts)
{
    if (opts.out.empty())
        return nullptr;
    auto sink = std::make_unique<engine::CsvSink>(opts.out);
    if (!sink->ok()) {
        std::fprintf(stderr, "cannot open --out file for writing: %s\n",
                     opts.out.c_str());
        std::exit(2);
    }
    return sink;
}

/**
 * One grid a bench scans: its --list label (keys print bare without
 * one) and the row index of its first point in the bench's --out file.
 */
struct Scan {
    const engine::SweepGrid& grid;
    std::string label = {};
    size_t indexBase = 0;
};

/**
 * Hand a run's records on: to --out, then either (a full run) to
 * @p sinks, returning the records for the bench's report, or (a
 * subset run) to stdout as one CSV with a note on stderr, returning
 * null — the bench exits 0 without its report, which needs every row.
 * @p total counts the bench's @p unit ("grid points", "rows").
 */
inline std::optional<std::vector<engine::RunRecord>>
deliver(const Options& opts, std::vector<engine::RunRecord> records,
        engine::ResultSink* file_sink,
        std::vector<engine::ResultSink*> sinks, size_t total,
        const char* unit)
{
    // CsvSink buffers rows until close(), so the header is the union
    // of every row's breakdown columns.
    std::optional<engine::CsvSink> stdout_sink;
    if (opts.subsetRun()) {
        stdout_sink.emplace(std::cout);
        sinks = {&*stdout_sink};
    }
    if (file_sink)
        sinks.push_back(file_sink);
    for (engine::ResultSink* sink : sinks) {
        for (const auto& r : records)
            sink->write(r);
    }
    if (!opts.subsetRun())
        return records;
    stdout_sink->close();
    std::string how;
    if (!opts.filter.empty())
        how = "--filter '" + opts.filter + "'";
    if (opts.shards > 0)
        how += (how.empty() ? "" : " and ") + std::string("--shard ") +
               std::to_string(opts.shard) + '/' +
               std::to_string(opts.shards);
    std::fprintf(stderr, "%zu/%zu %s selected by %s\n", records.size(),
                 total, unit, how.c_str());
    return std::nullopt;
}

/**
 * The run loop of a grid bench. The points of every grid in @p scans
 * that --filter and --shard select (engine::selectPoints; without
 * either flag, all of them) form one ordering, so --shard positions
 * are global across the grids. --list prints their keys and returns
 * null. Otherwise they run on one worker pool, each as the row its
 * grid's indexBase puts it at, with the bench's telemetry flags, and
 * their records are delivered (see deliver): a full run returns them
 * in scan order, a subset run prints them and returns null.
 */
inline std::optional<std::vector<engine::RunRecord>>
run(const Options& opts, const std::vector<Scan>& scans,
    const std::vector<engine::ResultSink*>& sinks = {})
{
    std::vector<const engine::SweepGrid*> grids;
    size_t total = 0;
    for (const Scan& s : scans) {
        grids.push_back(&s.grid);
        total += s.grid.size();
    }
    const auto selected =
        engine::selectPoints(grids, opts.filter, [&](size_t n) {
            return opts.range(n);
        });
    std::vector<engine::SweepGrid::Point> points;
    for (size_t g = 0; g < scans.size(); ++g) {
        for (const size_t i : selected[g]) {
            points.push_back(scans[g].grid.point(i));
            if (opts.list)
                std::printf("%s%s%s\n", scans[g].label.c_str(),
                            scans[g].label.empty() ? "" : ": ",
                            points.back().key().c_str());
            points.back().index += scans[g].indexBase;
        }
    }
    if (opts.list)
        return std::nullopt;

    engine::EngineOptions eopts(opts.jobs);
    eopts.traceDir = opts.traceDir;
    eopts.traceEventDir = opts.traceEventDir;
    eopts.metrics =
        opts.metricsFile ? &opts.metricsFile->registry : nullptr;
    const auto file_sink = makeFileSink(opts);
    return deliver(opts, engine::Engine(eopts).run(points),
                   file_sink.get(), sinks, total, "grid points");
}

/**
 * The run loop of a bench without a grid (fig13, cluster_route): a
 * fixed sequence of @p total result rows, of which --shard selects
 * one contiguous range (Options::range). @p run_rows runs exactly
 * rows [lo, hi) and returns their records in row order; each
 * record's index becomes its row. Delivery is a grid bench's (see
 * deliver), and --list prints nothing and returns null.
 */
inline std::optional<std::vector<engine::RunRecord>>
runRows(const Options& opts, size_t total,
        const std::function<std::vector<engine::RunRecord>(size_t, size_t)>&
            run_rows)
{
    if (opts.list) // no grid: nothing to list
        return std::nullopt;
    const auto range = opts.range(total);
    const auto file_sink = makeFileSink(opts);
    auto records = run_rows(range.first, range.second);
    for (size_t i = 0; i < records.size(); ++i)
        records[i].index = range.first + i;
    return deliver(opts, std::move(records), file_sink.get(), {}, total,
                   "rows");
}

} // namespace bench
} // namespace dream

#endif // DREAM_BENCH_BENCH_MAIN_H
