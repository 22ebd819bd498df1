/**
 * @file
 * The tracing half of the telemetry layer: a TraceEventSink records
 * typed spans and instants and serialises them as Chrome trace-event
 * JSON (the array-of-events format), so any run opens directly in
 * Perfetto / chrome://tracing.
 *
 * Conventions used by the simulator hooks (src/obs/README.md has the
 * full map): `pid` is the grid point's row index (point.index),
 * `tid` 0..N-1 are the system's accelerators, tid N
 * is the scheduler track and tid N+1 the frame-lifecycle track.
 * Timestamps are simulated microseconds — exactly the unit the
 * trace-event format expects — and events are appended in event-loop
 * order, so `ts` is monotonically non-decreasing per track (the
 * invariant tools/dream_prof --check enforces).
 */

#ifndef DREAM_OBS_TRACE_EVENT_H
#define DREAM_OBS_TRACE_EVENT_H

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dream {
namespace obs {

/**
 * Argument list of one trace event. Values are pre-rendered as JSON
 * (strings via json::quote, doubles via json::number) so the sink
 * stores plain pairs and serialisation is a straight join.
 */
class TraceArgs {
public:
    TraceArgs& str(const std::string& key, const std::string& value);
    TraceArgs& num(const std::string& key, double value);
    TraceArgs& integer(const std::string& key, long long value);

    const std::vector<std::pair<std::string, std::string>>& items()
        const
    {
        return kv_;
    }

private:
    std::vector<std::pair<std::string, std::string>> kv_;
};

/** One recorded event (see writeJson for the serialised form). */
struct TraceEvent {
    std::string name;
    std::string cat;
    char ph = 'X';   ///< 'X' span, 'i' instant, 'M' metadata
    double tsUs = 0.0;
    double durUs = 0.0; ///< 'X' only
    int64_t tid = 0;
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Collects the events of ONE simulation run (one grid point — one
 * pid) and serialises them on demand. Not thread-safe; the engine
 * gives every grid point its own sink, mirroring the one-Simulator-
 * per-point isolation that makes `--jobs` deterministic.
 */
class TraceEventSink {
public:
    explicit TraceEventSink(int64_t pid = 0) : pid_(pid) {}

    int64_t pid() const { return pid_; }
    size_t size() const { return events_.size(); }
    const std::vector<TraceEvent>& events() const { return events_; }

    /** 'M' metadata naming the process (grid point key). */
    void processName(const std::string& name);
    /** 'M' metadata naming track @p tid. */
    void threadName(int64_t tid, const std::string& name);
    /**
     * 'M' metadata event "dream_meta" carrying run identity
     * (window_us, seed, ...) for tools/dream_prof. Viewers ignore
     * unknown metadata names, so the file stays Perfetto-loadable.
     */
    void runMeta(const TraceArgs& args);

    /** A complete span ('X') of @p dur_us on track @p tid. */
    void span(int64_t tid, const std::string& name,
              const std::string& cat, double ts_us, double dur_us,
              const TraceArgs& args = {});
    /** A thread-scoped instant ('i') on track @p tid. */
    void instant(int64_t tid, const std::string& name,
                 const std::string& cat, double ts_us,
                 const TraceArgs& args = {});

    /**
     * Serialise as a Chrome trace-event JSON array, one event per
     * line, in recording order. Fields: name, cat, ph, ts, dur (X),
     * s ("t", instants), pid, tid, args.
     */
    void writeJson(std::ostream& out) const;

private:
    int64_t pid_;
    std::vector<TraceEvent> events_;
};

} // namespace obs
} // namespace dream

#endif // DREAM_OBS_TRACE_EVENT_H
