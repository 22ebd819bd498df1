#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/worker_pool.h"
#include "metrics/uxcost.h"
#include "obs/metrics.h"
#include "obs/trace_event.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "runner/trace.h"

namespace dream {
namespace engine {

std::vector<std::vector<size_t>>
selectPoints(const std::vector<const SweepGrid*>& grids,
             const std::string& filter,
             const std::function<std::pair<size_t, size_t>(size_t)>& range)
{
    std::vector<std::vector<size_t>> selected(grids.size());
    size_t total = 0;
    for (size_t g = 0; g < grids.size(); ++g) {
        for (size_t i = 0; i < grids[g]->size(); ++i) {
            if (filter.empty() ||
                grids[g]->point(i).key().find(filter) != std::string::npos)
                selected[g].push_back(i);
        }
        total += selected[g].size();
    }
    // Cut [lo, hi) out of the concatenated ordering: each grid keeps
    // the part of the range that falls in its window of positions.
    const auto r = range(total);
    const size_t lo = std::min(r.first, total);
    const size_t hi = std::max(lo, std::min(r.second, total));
    size_t base = 0;
    for (auto& indices : selected) {
        const size_t n = indices.size();
        const size_t b = std::clamp(lo, base, base + n) - base;
        const size_t e = std::clamp(hi, base, base + n) - base;
        indices = std::vector<size_t>(indices.begin() + long(b),
                                      indices.begin() + long(e));
        base += n;
    }
    return selected;
}

namespace {

/** Sanitized key + "-<hash>" stem shared by every per-point file. */
std::string
pointFileStem(const SweepGrid::Point& point)
{
    std::string name = point.key();
    // FNV-1a over the RAW key: two keys that sanitize identically
    // (e.g. "Mix A" vs "Mix@A") must not overwrite each other's
    // trace file — the hash suffix keeps the names distinct while
    // staying a pure function of the key, so a replay re-records to
    // the same file name.
    uint64_t hash = 1469598103934665603ull;
    for (const char c : name) {
        hash ^= uint64_t(uint8_t(c));
        hash *= 1099511628211ull;
    }
    for (char& c : name) {
        const bool keep =
            (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
            (c >= '0' && c <= '9') || c == '.' || c == '_' ||
            c == '=' || c == '+' || c == '-';
        if (!keep)
            c = '_';
    }
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "-%08x",
                  unsigned(hash & 0xffffffffu));
    return name + suffix;
}

} // anonymous namespace

std::string
traceFileName(const SweepGrid::Point& point)
{
    return pointFileStem(point) + ".trace.csv";
}

std::string
traceEventFileName(const SweepGrid::Point& point)
{
    return pointFileStem(point) + ".trace.json";
}

namespace {

/** Record one run's frame trace under @p trace_dir (see
 *  EngineOptions::traceDir). Throws on I/O failure — a sweep that
 *  silently recorded nothing must not look like a successful
 *  recording. */
void
recordTrace(const std::string& trace_dir, const SweepGrid::Point& point,
            const workload::Scenario& scenario, const sim::RunStats& stats)
{
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + '/' + traceFileName(point);
    std::ofstream out(path);
    if (!out.is_open())
        throw std::runtime_error("cannot open trace file for "
                                 "writing: " + path);
    runner::TraceMeta meta;
    meta.push_back({"scenario", point.scenario});
    meta.push_back({"system", point.system});
    meta.push_back({"scheduler", point.scheduler});
    meta.push_back({"params", paramFragment(point.params)});
    meta.push_back({"seed", std::to_string(point.seed)});
    meta.push_back({"window_us", runner::preciseDouble(point.windowUs)});
    meta.push_back({"index", std::to_string(point.index)});
    runner::writeFrameTraceCsv(out, stats, scenario, meta);
    if (!out)
        throw std::runtime_error("short write to trace file: " + path);
}

/** Write one run's telemetry event trace (Chrome trace-event JSON)
 *  under @p dir. Throws on I/O failure, like recordTrace. */
void
recordTraceEvents(const std::string& dir,
                  const SweepGrid::Point& point,
                  const obs::TraceEventSink& sink)
{
    std::filesystem::create_directories(dir);
    const std::string path = dir + '/' + traceEventFileName(point);
    std::ofstream out(path);
    if (!out.is_open())
        throw std::runtime_error("cannot open trace-event file for "
                                 "writing: " + path);
    sink.writeJson(out);
    if (!out)
        throw std::runtime_error("short write to trace-event file: " +
                                 path);
}

/**
 * Simulate one grid point in isolation (runs on worker threads).
 * Points of a trace-replay scenario (point.trace set) run through a
 * workload::ReplaySource. A non-null @p metrics_out collects the
 * run's metrics (Engine::run merges the per-point registries;
 * opts.metrics itself is NOT touched here, so workers stay
 * share-nothing).
 */
RunRecord
runGridPoint(const SweepGrid::Point& point, const EngineOptions& opts,
             obs::MetricsRegistry* metrics_out)
{
    // Materialise everything locally: workers share nothing MUTABLE.
    // runner::runOnce shares the cost table, an immutable table from
    // the process-wide cache (see cost_table_cache.h for the
    // determinism argument).
    const workload::Scenario scenario = (*point.makeScenario)();
    const hw::SystemConfig system = (*point.makeSystem)();
    auto sched = (*point.makeScheduler)(point.params);
    assert(sched && "scheduler factory returned nullptr");

    sim::SimConfig cfg;
    cfg.windowUs = point.windowUs;
    cfg.seed = point.seed;
    std::unique_ptr<workload::ReplaySource> replay;
    if (point.trace) {
        // Trace-replay scenario: inject the recorded arrival/deadline
        // sequence; paths re-materialise from (scenario, seed).
        replay = std::make_unique<workload::ReplaySource>(
            scenario, cfg.seed, *point.trace);
        cfg.arrivals = replay.get();
    }

    // Telemetry: one sink/registry pair per point (share-nothing);
    // pid = the point's row index, so traces from several grids line
    // up with the --out rows. Identity metadata goes in up front —
    // process_name names the track group in Perfetto, dream_meta
    // carries what dream_prof needs (the window for utilization, the
    // key for the report).
    obs::TraceEventSink trace_sink{int64_t(point.index)};
    if (!opts.traceEventDir.empty()) {
        trace_sink.processName(point.key());
        trace_sink.runMeta(
            obs::TraceArgs()
                .str("key", point.key())
                .num("window_us", point.windowUs)
                .integer("seed", (long long) point.seed)
                .integer("index", (long long) point.index));
        cfg.trace = &trace_sink;
    }
    cfg.metrics = metrics_out;

    const sim::RunStats stats =
        runner::runOnce(system, scenario, *sched, cfg);
    if (!opts.traceDir.empty())
        recordTrace(opts.traceDir, point, scenario, stats);
    if (!opts.traceEventDir.empty())
        recordTraceEvents(opts.traceEventDir, point, trace_sink);

    RunRecord r;
    r.index = point.index;
    r.scenario = point.scenario;
    r.system = point.system;
    r.scheduler = point.scheduler;
    r.params = point.params;
    r.seed = point.seed;
    r.windowUs = point.windowUs;
    fillMetrics(r, stats);
    return r;
}

} // anonymous namespace

void
fillMetrics(RunRecord& r, const sim::RunStats& stats)
{
    r.uxCost = metrics::uxCost(stats);
    r.dlvRate = stats.overallDlvRate();
    r.normEnergy = stats.overallNormEnergy();
    r.energyMj = stats.totalEnergyMj();
    r.violationFraction = stats.violationFraction();
    r.totalFrames = stats.totalFrames();
    r.violatedFrames = stats.totalViolated();
    r.droppedFrames = 0;
    for (const auto& t : stats.tasks)
        r.droppedFrames += t.droppedFrames;
    r.dropRate = r.totalFrames == 0
                     ? 0.0
                     : double(r.droppedFrames) / double(r.totalFrames);
    r.schedulerInvocations = stats.schedulerInvocations;

    // Breakdown columns: Supernet variant shares of started frames
    // (Figure 14). Columns are named after the model so the same
    // network lines up across scenarios; tasks sharing one Supernet
    // model within a scenario pool their starts before the shares
    // are taken.
    r.breakdown.clear();
    std::vector<std::pair<std::string, std::vector<uint64_t>>> pooled;
    for (const auto& task : stats.tasks) {
        if (task.variantStarts.empty())
            continue;
        auto it = std::find_if(
            pooled.begin(), pooled.end(),
            [&](const auto& p) { return p.first == task.model; });
        if (it == pooled.end()) {
            pooled.push_back({task.model, task.variantStarts});
            continue;
        }
        it->second.resize(
            std::max(it->second.size(), task.variantStarts.size()));
        for (size_t i = 0; i < task.variantStarts.size(); ++i)
            it->second[i] += task.variantStarts[i];
    }
    for (const auto& p : pooled) {
        uint64_t total = 0;
        for (const uint64_t v : p.second)
            total += v;
        for (size_t i = 0; i < p.second.size(); ++i) {
            r.breakdown.push_back(
                {p.first + "_v" + std::to_string(i) + "_share",
                 total == 0 ? 0.0
                            : double(p.second[i]) / double(total)});
        }
    }
}

std::vector<RunRecord>
Engine::run(const SweepGrid& grid,
            const std::vector<ResultSink*>& sinks) const
{
    std::vector<SweepGrid::Point> points;
    points.reserve(grid.size());
    for (size_t i = 0; i < grid.size(); ++i)
        points.push_back(grid.point(i));
    return run(points, sinks);
}

std::vector<RunRecord>
Engine::run(const std::vector<SweepGrid::Point>& points,
            const std::vector<ResultSink*>& sinks) const
{
    std::vector<RunRecord> records(points.size());
    // One registry per point, merged in list order AFTER the pool
    // joins: workers never touch shared telemetry state, so the
    // merged registry — like the record vector — is byte-identical
    // for any worker count.
    std::vector<obs::MetricsRegistry> point_metrics(
        opts_.metrics ? points.size() : 0);
    WorkerPool pool(opts_.jobs);
    pool.parallelFor(points.size(), [&](size_t k) {
        records[k] = runGridPoint(
            points[k], opts_, opts_.metrics ? &point_metrics[k] : nullptr);
    });
    if (opts_.metrics) {
        for (const auto& m : point_metrics)
            opts_.metrics->merge(m);
        // Pool-level occupancy (wall clock, hence volatile: kept for
        // profiling, excluded from the canonical dump).
        const auto& workers = pool.lastRunStats();
        for (size_t w = 0; w < workers.size(); ++w) {
            const std::string prefix =
                "engine/worker/" + std::to_string(w) + '/';
            for (const char* name :
                 {"items", "steals", "busy_s", "idle_s"})
                opts_.metrics->markVolatile(prefix + name);
            opts_.metrics->count(prefix + "items", workers[w].items);
            opts_.metrics->count(prefix + "steals", workers[w].steals);
            opts_.metrics->gaugeAdd(prefix + "busy_s",
                                   workers[w].busySeconds);
            opts_.metrics->gaugeAdd(prefix + "idle_s",
                                   workers[w].idleSeconds);
        }
    }

    for (ResultSink* sink : sinks) {
        if (!sink)
            continue;
        for (const auto& r : records)
            sink->write(r);
    }
    return records;
}

} // namespace engine
} // namespace dream
