/**
 * @file
 * The command line and run selection every bench shares. Run a bench
 * with --help for its flags; src/engine/README.md and tools/README.md
 * describe the shard and record -> replay protocols they drive.
 *
 * Parallel runs are bit-identical to --jobs 1: the engine orders
 * records by grid index before any sink sees them, for full and
 * subset runs alike.
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
#include <string>
#include <utility>
#include <vector>

#include "costmodel/cost_table_cache.h"
#include "engine/engine.h"
#include "engine/result_sink.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "util/flags.h"

namespace dream {
namespace bench {

/**
 * The --metrics output: a registry every engine run of the bench
 * accumulates into, written as JSON when the Options go out of scope
 * (same end-of-main flush discipline as the --out sinks), so
 * multi-grid benches dump ONE merged registry without per-bench
 * plumbing.
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
    bool costCache = true; ///< false with --no-cost-cache

    /**
     * The --metrics registry + file writer, shared by every engine
     * run of the bench and flushed when the Options leave scope.
     * Null without --metrics.
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
    table.add({"--no-cost-cache", "", "",
               "disable the shared cost-table cache (results are\n"
               "byte-identical; only throughput changes)",
               flags::set(&opts.costCache, false)});
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
 * flags and checks @p extras adds. Exits 0 on --help and 2 on an
 * error.
 */
inline Options
parseArgs(int argc, char** argv, Kind kind = Kind::Grid,
          const std::function<void(flags::Table&)>& extras = {})
{
    Options opts;
    flags::Table table;
    addFlags(table, opts, kind);
    if (extras)
        extras(table);
    table.parse(argc, argv);
    // The cache enable flag is process-global: every path that
    // acquires a cost table (engine runs, runner::runOnce under a
    // ParamSearch) honours it without plumbing.
    cost::CostTableCache::setEnabled(opts.costCache);
    return opts;
}

/** The engine options a bench run should use (jobs + telemetry). */
inline engine::EngineOptions
engineOptions(const Options& opts)
{
    engine::EngineOptions eopts;
    eopts.jobs = opts.jobs;
    eopts.traceDir = opts.traceDir;
    eopts.traceEventDir = opts.traceEventDir;
    eopts.metrics =
        opts.metricsFile ? &opts.metricsFile->registry : nullptr;
    return eopts;
}

/** CSV sink for --out; null without. Also null under --list, which
 *  runs nothing — opening (and thereby truncating) an existing --out
 *  file would lose its contents. Exits with an error if the file
 *  cannot be opened for writing. */
inline std::unique_ptr<engine::CsvSink>
makeFileSink(const Options& opts)
{
    if (opts.out.empty() || opts.list)
        return nullptr;
    auto sink = std::make_unique<engine::CsvSink>(opts.out);
    if (!sink->ok()) {
        std::fprintf(stderr, "cannot open --out file for writing: %s\n",
                     opts.out.c_str());
        std::exit(2);
    }
    return sink;
}

/** Sink list for Engine::run() — drops null entries. */
inline std::vector<engine::ResultSink*>
sinkList(std::initializer_list<engine::ResultSink*> sinks)
{
    std::vector<engine::ResultSink*> out;
    for (engine::ResultSink* s : sinks) {
        if (s)
            out.push_back(s);
    }
    return out;
}

/**
 * One grid a bench scans: its --list label (keys print bare without
 * one) and the index of its first row in the bench's --out file.
 */
struct Scan {
    const engine::SweepGrid& grid;
    std::string label = {};
    size_t indexBase = 0;
};

/**
 * Serve --list, --filter and --shard for every grid a bench scans, in
 * scan order, before the bench's own full run. The grids' selected
 * points form one ordering (engine::selectPoints), so --shard
 * positions are global across them. With --list the selected keys
 * print and nothing runs; with a subset flag the selected points run,
 * their rows streaming to stdout as one CSV and to @p file_sink. Returns false when the request was handled (the
 * bench should exit 0), true when the bench should go on with its
 * full run.
 */
inline bool
runOrList(const Options& opts, const std::vector<Scan>& scans,
          engine::ResultSink* file_sink)
{
    if (!opts.list && !opts.subsetRun())
        return true;
    std::vector<const engine::SweepGrid*> grids;
    for (const Scan& s : scans)
        grids.push_back(&s.grid);
    const auto selected =
        engine::selectPoints(grids, opts.filter, [&](size_t total) {
            return opts.range(total);
        });

    if (opts.list) {
        for (size_t g = 0; g < scans.size(); ++g) {
            for (const size_t i : selected[g])
                std::printf("%s%s%s\n", scans[g].label.c_str(),
                            scans[g].label.empty() ? "" : ": ",
                            scans[g].grid.point(i).key().c_str());
        }
        return false;
    }

    // One stdout sink for every grid: CsvSink buffers rows until
    // close(), so the header is the union of their breakdown columns.
    engine::CsvSink stdout_sink(std::cout);
    size_t ran = 0, total = 0;
    for (size_t g = 0; g < scans.size(); ++g) {
        auto eopts = engineOptions(opts);
        eopts.indexBase = scans[g].indexBase;
        ran += engine::Engine(eopts)
                   .run(scans[g].grid, sinkList({&stdout_sink, file_sink}),
                        selected[g])
                   .size();
        total += scans[g].grid.size();
    }
    stdout_sink.close();
    std::string how;
    if (!opts.filter.empty())
        how = "--filter '" + opts.filter + "'";
    if (opts.shards > 0)
        how += (how.empty() ? "" : " and ") + std::string("--shard ") +
               std::to_string(opts.shard) + '/' +
               std::to_string(opts.shards);
    std::fprintf(stderr, "%zu/%zu grid points selected by %s\n", ran, total,
                 how.c_str());
    return false;
}

} // namespace bench
} // namespace dream

#endif // DREAM_BENCH_BENCH_MAIN_H
