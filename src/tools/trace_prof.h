/**
 * @file
 * Reader/profiler for the telemetry event traces the engine records
 * under --trace-events (Chrome trace-event JSON, one file per grid
 * point — see obs::TraceEventSink) and for the metrics dumps of
 * --metrics / --metrics-full (obs::MetricsRegistry::writeJson). Each
 * reader makes one pass over its json::Document: the trace reader
 * validates the file shape the acceptance gate cares about
 * (top-level array, required fields per phase, non-decreasing
 * timestamps per track) while it folds the events into per-point
 * profiles: per-accelerator busy time as the union of job spans
 * clamped to the run window — the same quantity the simulator
 * reports as RunStats::accelBusyUs — plus the scheduler's events,
 * plan() calls and decision latency from the "sched" spans' args.
 * The metrics reader reads a dump back into an obs::MetricsRegistry.
 * Backs the tools/dream_prof CLI and the CI trace checker.
 */

#ifndef DREAM_TOOLS_TRACE_PROF_H
#define DREAM_TOOLS_TRACE_PROF_H

#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dream {
namespace tools {

/** One accelerator track of a point, folded from its job spans. */
struct AccelProfile {
    long long tid = 0;
    std::string name; ///< thread_name metadata ("accel<i> <name>")
    size_t jobs = 0;  ///< "job" spans on the track
    /**
     * Union of the job spans' [ts, ts+dur) intervals, each clamped
     * to [0, window] — overlapping jobs (an accelerator running
     * several slices) count once, exactly like the simulator's
     * RunStats::accelBusyUs bookkeeping, so the two agree to the
     * last bit on a faithful trace.
     */
    double busyUs = 0.0;

    /** busyUs / window (0 when the window is empty). */
    double utilization(double window_us) const
    {
        return window_us > 0.0 ? busyUs / window_us : 0.0;
    }
};

/** Everything one pid's (= one grid point's) events fold into. */
struct PointProfile {
    long long pid = 0;
    std::string key;        ///< process_name / dream_meta "key"
    double windowUs = 0.0;  ///< dream_meta "window_us" (0 if absent)
    std::vector<AccelProfile> accels; ///< ascending tid

    /** "sched" spans: one per scheduling event. */
    size_t schedEvents = 0;
    /**
     * Scheduler::plan() calls: the sum of the "sched" spans' "rounds"
     * args, the quantity RunStats::schedulerInvocations counts.
     */
    uint64_t planCalls = 0;
    obs::LatencyHistogram decisionWallNs; ///< "sched" spans' wall_ns

    size_t frameArrivals = 0;
    size_t frameDrops = 0;
    size_t deadlineViolations = 0;
    size_t variantSwitches = 0;
    size_t contextSwitches = 0; ///< "cs" spans across all tracks
};

/** A parsed trace file: its event count plus the per-point fold. */
struct TraceProfile {
    size_t eventCount = 0;
    std::vector<PointProfile> points; ///< ascending pid
};

/**
 * Parse, validate and fold one trace-event JSON file: a top-level
 * array of event objects; every event carries name/ph/pid/tid; 'X'
 * spans carry ts and dur >= 0, 'i' instants carry ts; timestamps are
 * non-decreasing per (pid, tid) track in file order ('M' metadata is
 * timeless and exempt); a "sched" span's "rounds" arg is a decimal
 * integer and its "wall_ns" a number, as is dream_meta's
 * "window_us". @p name labels errors (the file path).
 *
 * @throws std::runtime_error "<name>:<line>:<col>: <what>" on
 * malformed JSON (duplicate keys included) or a validation failure,
 * e.g. an "args" value that is not a number or a string.
 */
TraceProfile readTraceEventJson(std::istream& in,
                                const std::string& name = "<trace>");

/** readTraceEventJson from a file; errors name @p path. */
TraceProfile readTraceEventJson(const std::string& path);

/**
 * Render the per-accelerator utilization and scheduler
 * decision-latency tables for every point of @p profile — the
 * dream_prof report body.
 */
std::string profileReport(const TraceProfile& profile);

/**
 * Read one metrics JSON dump (`bench --metrics F` /
 * `--metrics-full F`, `dream_serve --metrics F`) back into a
 * registry: a top-level object of "counters" / "gauges" /
 * "histograms" sections. Counters and gauges are kept; histogram
 * summaries are parsed past, since the profiler's tables only read
 * scalars. @p name labels errors (the file path).
 *
 * @throws std::runtime_error "<name>:<line>:<col>: <what>" on
 * malformed input: bad JSON, a duplicated name, a section that is
 * not an object, a gauge that is not a number, or a counter that is
 * not a decimal integer in uint64_t range (the one form
 * obs::MetricsRegistry::writeJson writes).
 */
obs::MetricsRegistry readMetricsJson(std::istream& in,
                                     const std::string& name =
                                         "<metrics>");

/** readMetricsJson from a file; errors name @p path. */
obs::MetricsRegistry readMetricsJson(const std::string& path);

/**
 * Render the cost-table cache efficiency table from a metrics dump:
 * acquisitions, hits, misses (= distinct tables built), evictions
 * and the hit rate. The costcache counters are volatile — recorded
 * by `--metrics-full`, excluded from canonical `--metrics` output —
 * so a dump without them yields an explanatory line instead.
 */
std::string cacheReport(const obs::MetricsRegistry& metrics);

/**
 * Render the serve-mode telemetry table from a metrics dump
 * (`dream_serve --metrics F`): admission counters and the final
 * rolling-window latency/SLO gauges, plus a per-device table for a
 * cluster dump. A dump without serve metrics yields "".
 */
std::string serveReport(const obs::MetricsRegistry& metrics);

} // namespace tools
} // namespace dream

#endif // DREAM_TOOLS_TRACE_PROF_H
