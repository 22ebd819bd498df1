/**
 * @file
 * The parallel sweep engine: executes every point of a SweepGrid on
 * a WorkerPool and delivers RunRecords to result sinks.
 *
 * Determinism contract: each grid point is simulated with its own
 * Simulator and scheduler instance over the shared read-only
 * CostTable of its (system, model set), seeded from the grid point
 * alone, and records are collected into a pre-sized vector by
 * flat index. Sinks therefore observe the exact same byte stream for
 * any worker count — `--jobs 8` equals `--jobs 1`.
 */

#ifndef DREAM_ENGINE_ENGINE_H
#define DREAM_ENGINE_ENGINE_H

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/result_sink.h"
#include "engine/sweep_grid.h"

namespace dream {

namespace obs {
class MetricsRegistry;
}

namespace engine {

/** Engine knobs. */
struct EngineOptions {
    EngineOptions() = default;
    EngineOptions(int jobs_) : jobs(jobs_) {}

    /** Worker threads; <= 0 selects hardware concurrency. */
    int jobs = 1;
    /**
     * When non-empty, every executed grid point writes its per-frame
     * trace to "<traceDir>/<sanitized point key>.trace.csv" (created
     * on demand), with the point's identity as "# key=value"
     * metadata — the record side of the record -> replay ->
     * dream_diff regression loop. Replayable via
     * workload::ReplaySource / SweepGrid::addTraceReplay /
     * bench/trace_replay.
     */
    std::string traceDir;
    /**
     * When non-empty, every executed grid point writes its telemetry
     * event trace (Chrome trace-event JSON, openable in Perfetto) to
     * "<traceEventDir>/<sanitized point key>-<hash>.trace.json" —
     * the same per-point naming discipline as traceDir. The events'
     * pid is the point's index.
     */
    std::string traceEventDir;
    /**
     * When non-null, every executed grid point collects an
     * obs::MetricsRegistry which the engine merges into this one in
     * flat-index order after the workers join — so the merged
     * registry (and its JSON dump) is byte-identical for any --jobs
     * value, like every other engine output. Caller-owned; several
     * runs may accumulate into one registry.
     */
    obs::MetricsRegistry* metrics = nullptr;
};

/**
 * The one run-selection path. The points of @p grids whose key
 * contains @p filter, in scan order (grid by grid, ascending index),
 * form one ordering of T positions; @p range maps T to the half-open
 * position range to run, which is clamped to [0, T). Returns each
 * grid's selected indices, ascending. Every bench run, full or
 * subset, comes through here (bench::run turns the selection into
 * the point list Engine::run(points) runs).
 */
std::vector<std::vector<size_t>> selectPoints(
    const std::vector<const SweepGrid*>& grids, const std::string& filter,
    const std::function<std::pair<size_t, size_t>(size_t total)>& range);

/**
 * The trace-file name a grid point records to under
 * EngineOptions::traceDir: the point key with every character
 * outside [A-Za-z0-9._=+-] replaced by '_', plus "-<hash>" of the
 * raw key (so keys that sanitize identically cannot overwrite each
 * other's file) and ".trace.csv". A pure function of the key —
 * re-recording a replayed point lands on the same name.
 */
std::string traceFileName(const SweepGrid::Point& point);

/**
 * The telemetry event-trace file a grid point writes under
 * EngineOptions::traceEventDir: the same sanitized-key-plus-hash
 * stem as traceFileName, with extension ".trace.json".
 */
std::string traceEventFileName(const SweepGrid::Point& point);

/**
 * Fill a record's metric fields — including breakdown columns such
 * as Supernet variant shares — from finished run stats (identity
 * fields — scenario, system, scheduler, params, seed, window — are
 * the caller's). Lets benches that run simulations outside the
 * engine still stream rows through result sinks.
 */
void fillMetrics(RunRecord& record, const sim::RunStats& stats);

/** Parallel sweep driver. */
class Engine {
public:
    /** Engine(N) runs on N worker threads (EngineOptions(int)). */
    explicit Engine(EngineOptions opts = {}) : opts_(std::move(opts))
    {}

    /**
     * Execute @p points, then deliver their records to @p sinks in
     * list order. Each point runs in isolation through
     * runner::runOnce, and its index is its row: the record's index,
     * the recorded "# index=" metadata and the telemetry events' pid,
     * so points from several grids can share one result file. Sinks
     * are not closed (a sink may accumulate several runs); callers or
     * sink destructors close.
     *
     * @return the records, in list order.
     */
    std::vector<RunRecord>
    run(const std::vector<SweepGrid::Point>& points,
        const std::vector<ResultSink*>& sinks = {}) const;

    /** Run every point of @p grid, in flat-index order. */
    std::vector<RunRecord>
    run(const SweepGrid& grid,
        const std::vector<ResultSink*>& sinks = {}) const;

private:
    EngineOptions opts_;
};

} // namespace engine
} // namespace dream

#endif // DREAM_ENGINE_ENGINE_H
