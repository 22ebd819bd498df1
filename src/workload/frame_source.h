/**
 * @file
 * Frame materialisation: turns a Scenario into the per-frame inference
 * requests the simulator executes, resolving all workload dynamicity
 * (skip gates, early exits, cascade triggers) with a deterministic
 * per-frame RNG so every scheduler sees the identical workload.
 */

#ifndef DREAM_WORKLOAD_FRAME_SOURCE_H
#define DREAM_WORKLOAD_FRAME_SOURCE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "models/path.h"
#include "workload/scenario.h"

namespace dream {
namespace workload {

/** One materialised inference request (a frame of a task). */
struct FrameSpec {
    TaskId task = 0;
    int frameIdx = 0;
    double arrivalUs = 0.0;
    double deadlineUs = 0.0;
    /**
     * Materialised execution path: the model's layers after applying
     * skip gates and early exits. Supernet models start on their
     * default (Original) path; the scheduler may switch variants.
     * Shared and immutable: frames of one task with the same skip
     * selection and exit cut hold one layer list, and copying a
     * frame copies a reference to it (models::Path).
     */
    models::Path path;
    /**
     * Cascade-gate outcomes for this frame's dependent tasks, aligned
     * with Scenario::childrenOf(task). Sampled from the parent frame's
     * RNG, so they are fixed per frame across schedulers.
     */
    std::vector<char> childTriggers;
};

/**
 * Where the simulator's frames come from. The generative
 * implementation (FrameSource) materialises periodic arrivals from
 * the scenario; ReplaySource re-injects a recorded trace's exact
 * arrival sequence. Implementations must be const-thread-safe: one
 * instance may serve several concurrent runs. A frame's path may
 * outlive the source that materialised it (models::Path owns its
 * list), so callers may keep frames after the source is gone.
 */
class ArrivalSource {
public:
    virtual ~ArrivalSource() = default;

    /**
     * Every externally-released frame whose arrival falls inside
     * [0, window_us), in an order the simulator may stably re-sort
     * by arrival time.
     */
    virtual std::vector<FrameSpec> rootFrames(double window_us)
        const = 0;

    /**
     * Materialise the dependent frame of @p child for pipeline frame
     * @p frame_idx, released when the parent completed at
     * @p parent_completion_us. Only called for frames whose parent's
     * cascade gate (FrameSpec::childTriggers) fired.
     */
    virtual FrameSpec childFrame(TaskId child, int frame_idx,
                                 double parent_completion_us) const = 0;
};

/**
 * Every root frame of @p source inside [0, window_us), in arrival
 * order: the order Simulator::run offers them and every serving
 * producer pushes them. The sort is stable, so simultaneous arrivals
 * keep source order; for a replay that is the recorded admission
 * order, which the replay must reproduce exactly.
 */
std::vector<FrameSpec> rootFramesByArrival(const ArrivalSource& source,
                                           double window_us);

/**
 * Deterministic frame generator for one run.
 *
 * Per-frame randomness derives from hash(seed, task, frameIdx), never
 * from call order, so different schedulers (which complete parents at
 * different times) still face the same materialised workload.
 *
 * Paths are interned: the source builds one layer list per distinct
 * (task, skip selection, exit cut) and hands every frame on that
 * selection a reference to it. The table sits behind a mutex, so
 * concurrent const calls stay safe, and it is bounded by the
 * distinct selections drawn, not by the frames materialised.
 */
class FrameSource : public ArrivalSource {
public:
    FrameSource(const Scenario& scenario, uint64_t seed);

    /** The scenario being generated. */
    const Scenario& scenario() const { return scenario_; }
    /** The run seed. */
    uint64_t seed() const { return seed_; }

    /**
     * All root-task frames whose arrival falls inside
     * [task.startUs, min(task.endUs, window_us)).
     */
    std::vector<FrameSpec> rootFrames(double window_us) const override;

    /**
     * Materialise the dependent frame of @p child for pipeline frame
     * @p frame_idx, released when the parent completed at
     * @p parent_completion_us. The deadline is the child's own
     * FPS-derived period from its release.
     */
    FrameSpec childFrame(TaskId child, int frame_idx,
                         double parent_completion_us) const override;

    /**
     * Materialise one externally-timed root frame — the live-ingest
     * entry point (dream_serve --ingest). The deadline is one period
     * after the arrival, exactly like generated frames; path and
     * cascade gates come from the same per-frame RNG, so an ingested
     * (task, frame_idx) is the frame rootFrames() would have
     * generated at that time. Throws std::invalid_argument when
     * @p task is out of range or not a root task.
     */
    FrameSpec rootFrame(TaskId task, int frame_idx,
                        double arrival_us) const;

    /**
     * The execution path of @p task for frame @p frame_idx: the
     * interned list of its (skip selection, exit cut).
     */
    models::Path materialisePath(TaskId task, int frame_idx) const;

private:
    FrameSpec makeFrame(TaskId task, int frame_idx, double arrival_us,
                        double deadline_us) const;

    Scenario scenario_;
    uint64_t seed_;
    /** Guards paths_. */
    mutable std::mutex pathsMu_;
    /** Per task: interned paths keyed by {exit cut, skip-block
     *  bitmask words}. */
    mutable std::vector<std::map<std::vector<uint64_t>, models::Path>>
        paths_;
};

} // namespace workload
} // namespace dream

#endif // DREAM_WORKLOAD_FRAME_SOURCE_H
