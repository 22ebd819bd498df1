#include "workload/replay_source.h"

#include <stdexcept>

namespace dream {
namespace workload {

std::string
FrameTrace::metaValue(const std::string& key) const
{
    for (const auto& kv : meta) {
        if (kv.first == key)
            return kv.second;
    }
    return {};
}

ReplaySource::ReplaySource(const Scenario& scenario, uint64_t seed,
                           const FrameTrace& trace)
    : paths_(scenario, seed), trace_(&trace)
{
    const auto& tasks = paths_.scenario().tasks;
    for (size_t i = 0; i < trace.frames.size(); ++i) {
        const TraceFrame& fr = trace.frames[i];
        if (fr.task < 0 || size_t(fr.task) >= tasks.size())
            throw std::runtime_error(
                "trace frame " + std::to_string(i) + " names task " +
                std::to_string(fr.task) + ", scenario '" +
                scenario.name + "' has " +
                std::to_string(tasks.size()) + " tasks");
        if (fr.model != tasks[size_t(fr.task)].model.name)
            throw std::runtime_error(
                "trace frame " + std::to_string(i) + " names model '" +
                fr.model + "' for task " + std::to_string(fr.task) +
                ", scenario '" + scenario.name + "' has '" +
                tasks[size_t(fr.task)].model.name + "' there");
    }
}

std::vector<FrameSpec>
ReplaySource::rootFrames(double window_us) const
{
    // Every recorded frame is injected at its recorded arrival —
    // including cascade-released ones, whose recorded arrival is the
    // parent's completion time in the original run. Trace order is
    // the recorded admission order; the simulator's stable sort
    // preserves it for simultaneous arrivals.
    std::vector<FrameSpec> frames;
    frames.reserve(trace_->frames.size());
    for (const TraceFrame& fr : trace_->frames) {
        if (fr.arrivalUs >= window_us)
            continue;
        FrameSpec spec;
        spec.task = fr.task;
        spec.frameIdx = fr.frameIdx;
        spec.arrivalUs = fr.arrivalUs;
        spec.deadlineUs = fr.deadlineUs;
        spec.path = paths_.materialisePath(fr.task, fr.frameIdx);
        // Cascade gates stay cleared: dependent frames are already in
        // the trace, and re-firing them would admit each child twice.
        frames.push_back(std::move(spec));
    }
    return frames;
}

FrameSpec
ReplaySource::childFrame(TaskId, int, double) const
{
    throw std::logic_error(
        "ReplaySource::childFrame: a replay injects recorded cascade "
        "frames directly and never re-fires their gates");
}

} // namespace workload
} // namespace dream
