/**
 * @file
 * Frame-trace I/O: write a run's per-frame outcomes as CSV for
 * offline analysis (latency CDFs, violation timelines, plotting the
 * paper's figures from raw data) and parse an exported trace back
 * into typed records for replay (workload::ReplaySource) and
 * regression comparison.
 */

#ifndef DREAM_RUNNER_TRACE_H
#define DREAM_RUNNER_TRACE_H

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "hw/system.h"
#include "runner/experiment.h"
#include "sim/stats.h"
#include "workload/replay_source.h"
#include "workload/scenario.h"

namespace dream {
namespace runner {

/** Optional "# key=value" metadata lines of a frame-trace CSV. */
using TraceMeta = std::vector<std::pair<std::string, std::string>>;

/** The frame-trace CSV header line (no trailing newline). */
const std::string& frameTraceCsvHeader();

/**
 * Render the run's frame trace as CSV (header + one row per admitted
 * frame, in admission order):
 * task,model,frame,arrival_us,deadline_us,completion_us,latency_us,
 * violated,dropped,in_window,variant,energy_mj
 *
 * Model names are csvQuote()d, so commas/quotes round-trip; times
 * use shortest-round-trip formatting (preciseDouble), so a replayed
 * trace reproduces the recorded doubles bit for bit; the
 * completion/latency cells of never-completed frames are empty (the
 * reader maps them to NaN), never a -1 sentinel a consumer could
 * mistake for a negative latency.
 *
 * @p meta lines ("# key=value"), if any, precede the header — the
 * engine's --record-trace recorder stores the grid-point identity
 * there so a trace file is self-describing. Throws
 * std::invalid_argument on metadata the line format cannot represent
 * (newlines anywhere, '=' in a key) rather than writing a trace the
 * reader cannot parse.
 */
void writeFrameTraceCsv(std::ostream& os, const sim::RunStats& stats,
                        const workload::Scenario& scenario,
                        const TraceMeta& meta = {});

/** writeFrameTraceCsv() into a string. */
std::string frameTraceCsv(const sim::RunStats& stats,
                          const workload::Scenario& scenario,
                          const TraceMeta& meta = {});

/**
 * Parse a frame-trace CSV (as written by writeFrameTraceCsv) back
 * into typed per-frame records, including any leading "# key=value"
 * metadata lines. Empty completion/latency cells map to NaN.
 *
 * @throws std::runtime_error on an unexpected header, a row with the
 * wrong cell count, or a malformed numeric/flag cell (the error
 * names the row and cell): integer cells are decimal in
 * [0, INT_MAX], time and energy cells are finite numbers, and an
 * arrival is not negative.
 */
workload::FrameTrace readFrameTraceCsv(std::istream& in);

/** readFrameTraceCsv from a file; the error names @p path. */
workload::FrameTrace readFrameTraceCsv(const std::string& path);

/**
 * A grid point recorded with --record-trace, resolved from its trace
 * file's "# key=value" metadata: what bench/trace_replay and
 * dream_serve --replay re-run.
 */
struct RecordedPoint {
    std::shared_ptr<const workload::FrameTrace> trace;
    std::string scenario; ///< recorded name, e.g. "VR_Gaming@p0.9"
    workload::ScenarioPreset preset = workload::ScenarioPreset::ArCall;
    double cascadeProb = 0.5; ///< the name's "@p" suffix, or 0.5
    hw::SystemPreset system = hw::SystemPreset::Sys4k2Ws;
    SchedKind scheduler = SchedKind::Fcfs;
    uint64_t seed = 0;
    double windowUs = 0.0;
    size_t index = 0; ///< the point's row index in the recording

    workload::Scenario makeScenario() const
    {
        return workload::makeScenario(preset, cascadeProb);
    }
};

/**
 * Read the trace at @p path and resolve its metadata: scenario (a
 * Table 3 preset, with an optional "@p<cascade prob>" suffix),
 * system, scheduler, an empty params list, seed, window_us (finite,
 * > 0) and index.
 *
 * @throws std::runtime_error "<path>: <why>" for an unreadable file,
 * missing or malformed metadata, an unknown name, a parameterised
 * point or a generated scenario (not replayable from metadata).
 */
RecordedPoint loadRecordedPoint(const std::string& path);

} // namespace runner
} // namespace dream

#endif // DREAM_RUNNER_TRACE_H
