#include "workload/frame_source.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "workload/rng.h"

namespace dream {
namespace workload {

namespace {

using rng::splitmix64;

/** Stateless per-frame random stream. */
class FrameRng {
public:
    FrameRng(uint64_t seed, TaskId task, int frame)
        : state_(splitmix64(seed ^ splitmix64(uint64_t(task) << 32 |
                                              uint64_t(uint32_t(frame)))))
    {}

    /** Uniform double in [0, 1). */
    double uniform() { return rng::nextUniform(state_); }

private:
    uint64_t state_;
};

} // anonymous namespace

FrameSource::FrameSource(const Scenario& scenario, uint64_t seed)
    : scenario_(scenario), seed_(seed), paths_(scenario.tasks.size())
{
}

models::Path
FrameSource::materialisePath(TaskId task, int frame_idx) const
{
    const models::Model& model = scenario_.tasks[task].model;
    FrameRng rng(seed_ ^ 0xa5a5a5a5ull, task, frame_idx);

    // The selection, keyed as {exit cut, skip-block bitmask words}.
    // Decide skip gates (SkipNet-style blocks).
    const size_t num_blocks = model.skipBlocks.size();
    std::vector<uint64_t> key(1 + (num_blocks + 63) / 64, 0);
    for (size_t b = 0; b < num_blocks; ++b) {
        if (rng.uniform() < model.skipBlocks[b].skipProb)
            key[1 + b / 64] |= uint64_t(1) << (b % 64);
    }

    // Decide the earliest firing early exit (if any).
    size_t cut = model.layers.size();
    for (const auto& exit : model.earlyExits) {
        if (rng.uniform() < exit.exitProb) {
            cut = std::min(cut, exit.afterLayer + 1);
            break;
        }
    }
    key[0] = cut;

    std::lock_guard<std::mutex> lock(pathsMu_);
    auto& interned = paths_[size_t(task)];
    auto it = interned.find(key);
    if (it != interned.end())
        return it->second;

    // First frame on this selection: build its layer list.
    std::vector<char> skip(cut, 0);
    for (size_t b = 0; b < num_blocks; ++b) {
        if ((key[1 + b / 64] >> (b % 64)) & 1) {
            const auto& blk = model.skipBlocks[b];
            for (size_t i = blk.begin; i < std::min(blk.end, cut); ++i)
                skip[i] = 1;
        }
    }
    std::vector<models::Layer> layers;
    layers.reserve(cut);
    for (size_t i = 0; i < cut; ++i) {
        if (!skip[i])
            layers.push_back(model.layers[i]);
    }
    assert(!layers.empty());
    return interned.emplace(std::move(key), std::move(layers))
        .first->second;
}

FrameSpec
FrameSource::makeFrame(TaskId task, int frame_idx, double arrival_us,
                       double deadline_us) const
{
    FrameSpec f;
    f.task = task;
    f.frameIdx = frame_idx;
    f.arrivalUs = arrival_us;
    f.deadlineUs = deadline_us;
    f.path = materialisePath(task, frame_idx);

    // Cascade gate per dependent task, from this (parent) frame's RNG.
    const auto children = scenario_.childrenOf(task);
    FrameRng rng(seed_ ^ 0x5a5a5a5aull, task, frame_idx);
    f.childTriggers.reserve(children.size());
    for (const TaskId c : children) {
        f.childTriggers.push_back(
            rng.uniform() < scenario_.tasks[c].triggerProb ? 1 : 0);
    }
    return f;
}

std::vector<FrameSpec>
FrameSource::rootFrames(double window_us) const
{
    std::vector<FrameSpec> frames;
    // Tolerance for accumulated floating error at window boundaries
    // (units: us; one nanosecond).
    constexpr double eps = 1e-3;
    for (TaskId t = 0; t < TaskId(scenario_.tasks.size()); ++t) {
        const TaskSpec& spec = scenario_.tasks[t];
        if (spec.dependsOn != kNoParent)
            continue;
        const double period = spec.periodUs();
        const double until = std::min(window_us, spec.endUs);
        for (int idx = 0;; ++idx) {
            // Multiplicative arrival avoids drift over long windows.
            const double at = spec.startUs + double(idx) * period;
            if (at >= until - eps)
                break;
            frames.push_back(makeFrame(t, idx, at, at + period));
        }
    }
    return frames;
}

FrameSpec
FrameSource::rootFrame(TaskId task, int frame_idx,
                       double arrival_us) const
{
    if (task < 0 || size_t(task) >= scenario_.tasks.size())
        throw std::invalid_argument(
            "rootFrame: task id out of range");
    const TaskSpec& spec = scenario_.tasks[size_t(task)];
    if (spec.dependsOn != kNoParent)
        throw std::invalid_argument(
            "rootFrame: dependent tasks are released by their "
            "parent's cascade gate, not by ingest");
    if (!std::isfinite(arrival_us) || arrival_us < 0.0)
        throw std::invalid_argument(
            "rootFrame: arrival time must be finite and >= 0");
    return makeFrame(task, frame_idx, arrival_us,
                     arrival_us + spec.periodUs());
}

FrameSpec
FrameSource::childFrame(TaskId child, int frame_idx,
                        double parent_completion_us) const
{
    const TaskSpec& spec = scenario_.tasks[child];
    assert(spec.dependsOn != kNoParent);
    // Dependent stages carry their own FPS-derived deadline from the
    // moment they are released (Table 3 assigns every model its own
    // rate), so a slow parent does not make the child structurally
    // infeasible.
    FrameSpec f = makeFrame(child, frame_idx, parent_completion_us,
                            parent_completion_us + spec.periodUs());
    return f;
}

std::vector<FrameSpec>
rootFramesByArrival(const ArrivalSource& source, double window_us)
{
    auto frames = source.rootFrames(window_us);
    std::stable_sort(frames.begin(), frames.end(),
                     [](const auto& a, const auto& b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    return frames;
}

} // namespace workload
} // namespace dream
