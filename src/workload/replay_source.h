/**
 * @file
 * Trace replay: typed per-frame records of a recorded run
 * (FrameTrace, parsed from a frame-trace CSV by
 * runner::readFrameTraceCsv) and the ReplaySource that re-injects
 * the recorded arrival/deadline sequence into the simulator, so
 * scheduler comparisons see byte-identical load instead of
 * re-randomized arrivals.
 */

#ifndef DREAM_WORKLOAD_REPLAY_SOURCE_H
#define DREAM_WORKLOAD_REPLAY_SOURCE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/frame_source.h"
#include "workload/scenario.h"

namespace dream {
namespace workload {

/**
 * One recorded frame outcome — the typed form of one frame-trace CSV
 * row. completionUs/latencyUs are NaN for frames that never
 * completed (dropped, or unfinished at window end): the CSV writes
 * them as empty cells, so downstream tooling cannot mistake a drop
 * for a negative latency.
 */
struct TraceFrame {
    TaskId task = 0;
    std::string model;
    int frameIdx = 0;
    double arrivalUs = 0.0;
    double deadlineUs = 0.0;
    double completionUs = 0.0; ///< NaN if never completed
    double latencyUs = 0.0;    ///< NaN if never completed
    bool violated = false;
    bool dropped = false;
    /** Deadline inside the run window (counted in TaskStats). */
    bool inWindow = true;
    int variant = 0;
    double energyMj = 0.0;
};

/**
 * A parsed frame trace: the recorded frames in admission order, plus
 * the "# key=value" metadata lines the engine's --record-trace
 * recorder prepends (scenario/system/scheduler/params/seed/
 * window_us/index) so a trace file is self-describing.
 */
struct FrameTrace {
    /** Metadata key/value pairs, in file order. */
    std::vector<std::pair<std::string, std::string>> meta;
    /** Recorded frames, in the original run's admission order. */
    std::vector<TraceFrame> frames;

    /** Value of metadata key @p key; empty string if absent. */
    std::string metaValue(const std::string& key) const;
};

/**
 * Arrival source that drives the simulator with a recorded trace's
 * exact arrival/deadline sequence per task instead of periodic
 * generation.
 *
 * Every recorded frame — root and cascade-released alike — is
 * injected at its recorded arrival time, so the load is byte-
 * identical across whatever schedulers a sweep compares (a
 * generative run would re-derive child arrivals from each
 * scheduler's own completion times). Execution paths are
 * re-materialised from (scenario, seed) with the same per-frame RNG
 * as the recording, so replaying under the recorded scheduler
 * reproduces the original run's per-frame outcomes exactly; cascade
 * gates are suppressed (children already appear in the trace).
 *
 * Caveat: the exactness guarantee rests on the recorded admission
 * order being recoverable from arrival times (the simulator's
 * stable sort). If a cascade release and an earlier root arrival
 * coincide within the simulator's 1e-9 event epsilon — distinct
 * times, same event step — the replay can admit them in timestamp
 * order instead of the original completion-first order. This has
 * measure zero for continuous timings and is asserted away by the
 * round-trip tests/CI for the recorded benches.
 */
class ReplaySource : public ArrivalSource {
public:
    /**
     * @param scenario  the recorded scenario (same task list)
     * @param seed      the recorded run's workload seed
     * @param trace     the recorded trace; must outlive this source
     *
     * @throws std::runtime_error if a trace frame names a task the
     * scenario does not have, or a model name that does not match
     * the scenario's task (replaying against the wrong scenario
     * would silently simulate a different workload).
     */
    ReplaySource(const Scenario& scenario, uint64_t seed,
                 const FrameTrace& trace);

    /** The recorded frames, as injectable FrameSpecs. */
    std::vector<FrameSpec> rootFrames(double window_us) const override;

    /**
     * Never called during a replay (cascade gates are suppressed);
     * @throws std::logic_error.
     */
    FrameSpec childFrame(TaskId child, int frame_idx,
                         double parent_completion_us) const override;

    /** The trace being replayed. */
    const FrameTrace& trace() const { return *trace_; }

private:
    FrameSource paths_; ///< path materialisation, recording RNG
    const FrameTrace* trace_;
};

} // namespace workload
} // namespace dream

#endif // DREAM_WORKLOAD_REPLAY_SOURCE_H
