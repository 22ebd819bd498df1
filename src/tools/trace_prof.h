/**
 * @file
 * Reader/profiler for the telemetry event traces the engine records
 * under --trace-events (Chrome trace-event JSON, one file per grid
 * point — see obs::TraceEventSink). Validates the file shape the
 * acceptance gate cares about (top-level array, required fields per
 * phase, non-decreasing timestamps per track) and folds the events
 * into per-point profiles: per-accelerator busy time as the union of
 * job spans clamped to the run window — the same quantity the
 * simulator reports as RunStats::accelBusyUs — plus scheduler
 * decision-latency samples from the "sched" spans' wall_ns args.
 * Backs the tools/dream_prof CLI and the CI trace checker.
 */

#ifndef DREAM_TOOLS_TRACE_PROF_H
#define DREAM_TOOLS_TRACE_PROF_H

#include <cstddef>
#include <istream>
#include <string>
#include <utility>
#include <vector>

namespace dream {
namespace tools {

/**
 * One parsed trace event. Strings are decoded; arg values keep the
 * decoded string for JSON strings and the verbatim token for
 * numbers, so numeric args re-parse with strtod.
 */
struct ProfEvent {
    std::string name;
    std::string cat;
    char ph = '\0';    ///< 'X' span, 'i' instant, 'M' metadata
    double tsUs = 0.0;
    double durUs = 0.0; ///< spans only
    long long pid = 0;
    long long tid = 0;
    std::vector<std::pair<std::string, std::string>> args;

    /** Value of arg @p key, or nullptr when absent. */
    const std::string* arg(const std::string& key) const;
};

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

    size_t schedInvocations = 0;
    std::vector<double> decisionWallNs; ///< "sched" spans' wall_ns

    size_t frameArrivals = 0;
    size_t frameDrops = 0;
    size_t deadlineViolations = 0;
    size_t variantSwitches = 0;
    size_t contextSwitches = 0; ///< "cs" spans across all tracks
};

/** A parsed trace file: raw events plus the per-point fold. */
struct TraceProfile {
    std::vector<ProfEvent> events;   ///< file order
    std::vector<PointProfile> points; ///< ascending pid
};

/**
 * Parse and validate one trace-event JSON file: a top-level array of
 * event objects; every event carries name/ph/pid/tid; 'X' spans
 * carry ts and dur >= 0, 'i' instants carry ts; timestamps are
 * non-decreasing per (pid, tid) track in file order ('M' metadata is
 * timeless and exempt). @p name labels errors (the file path).
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
 * Parsed counters and gauges of a metrics JSON dump (`bench
 * --metrics F` / `--metrics-full F`,
 * obs::MetricsRegistry::writeJson). Histograms are parsed past but
 * not kept: the profiler's consumers — the cost-cache efficiency
 * and serve-telemetry tables — only need scalar sections.
 */
struct MetricsProfile {
    /** Counter (name, value) pairs in file order. */
    std::vector<std::pair<std::string, double>> counters;
    /** Gauge (name, value) pairs in file order. */
    std::vector<std::pair<std::string, double>> gauges;

    /** Counter value, or @p fallback when absent. */
    double counter(const std::string& name,
                   double fallback = 0.0) const;
    bool has(const std::string& name) const;

    /** Gauge value, or @p fallback when absent. */
    double gauge(const std::string& name, double fallback = 0.0) const;
    bool hasGauge(const std::string& name) const;
};

/**
 * Parse one metrics JSON dump: a top-level object of "counters" /
 * "gauges" / "histograms" sections. @p name labels errors (the file
 * path).
 *
 * @throws std::runtime_error "<name>:<line>:<col>: <what>" on
 * malformed input: bad JSON, a duplicated name, a section that is
 * not an object, a gauge that is not a number, or a counter that is
 * not a decimal integer in uint64_t range (the one form
 * obs::MetricsRegistry::writeJson writes).
 */
MetricsProfile readMetricsJson(std::istream& in,
                               const std::string& name = "<metrics>");

/** readMetricsJson from a file; errors name @p path. */
MetricsProfile readMetricsJson(const std::string& path);

/**
 * Render the cost-table cache efficiency table from a metrics dump:
 * acquisitions, hits, misses (= distinct tables built), evictions
 * and the hit rate. The costcache counters are volatile — recorded
 * by `--metrics-full`, excluded from canonical `--metrics` output —
 * so a dump without them yields an explanatory line instead.
 */
std::string cacheReport(const MetricsProfile& metrics);

/**
 * Render the serve-mode telemetry table from a metrics dump
 * (`dream_serve --metrics F`): admission counters and the final
 * rolling-window latency/SLO gauges. A dump without serve metrics
 * yields an explanatory line instead.
 */
std::string serveReport(const MetricsProfile& metrics);

} // namespace tools
} // namespace dream

#endif // DREAM_TOOLS_TRACE_PROF_H
