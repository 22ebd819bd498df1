/**
 * @file
 * Smart Frame Drop engine (Section 4.2.1).
 *
 * A frame is dropped only when all four conditions hold:
 *  1. Deadline-violation likelihood: minimum_to_go > slack.
 *  2. Multi-model violation: more than one live job is expected to
 *     violate its deadline (dropping helps someone else). This reads
 *     every live frame, in flight or queued, and stops at the second
 *     expected violator.
 *  3. Dependency-free: the frame's task is the last model of its
 *     pipeline (no other model depends on it).
 *  4. Drop-rate bound: the task stays under the maximum frame-drop
 *     rate over a window of frames.
 *
 * Conditions 1, 3 and 4 are evaluated on the ready frames (the
 * droppable task heads); among those that qualify, the one with the
 * highest minimum_to_go / slack ratio is the victim, the first head
 * winning a tie.
 *
 * The conditions run cheapest first, which selects the same victim
 * as the order above: per ready head, condition 4 (a division), then
 * 3 (a scan of the task list), then 1 (one minimum_to_go, reused for
 * the ratio). Condition 2 walks the live set only when a victim was
 * found, since a drop needs all four. selectDrop returns the victim
 * itself rather than an optional id, whose return goes through memory
 * and stalls on store forwarding.
 */

#ifndef DREAM_CORE_FRAME_DROP_H
#define DREAM_CORE_FRAME_DROP_H

#include "core/mapscore.h"
#include "sim/scheduler.h"

namespace dream {
namespace core {

/** Selects at most one frame to drop per scheduling round. */
class FrameDropEngine {
public:
    /** Drops keep each task at or under @p max_drop_rate. */
    explicit FrameDropEngine(double max_drop_rate)
        : maxDropRate_(max_drop_rate)
    {}

    /**
     * Evaluate condition 2 over the live frames and conditions 1, 3
     * and 4 over the ready frames; return the ready frame to drop, or
     * nullptr.
     */
    const sim::Request* selectDrop(const sim::SchedulerContext& ctx,
                                   const MapScoreEngine& scores) const;

    /**
     * Condition 1 helper: is @p req expected to violate its deadline
     * even on the best-latency accelerators?
     */
    bool expectedViolation(const sim::SchedulerContext& ctx,
                           const MapScoreEngine& scores,
                           const sim::Request& req) const;

    /**
     * Condition 4 helper: would dropping one more frame of @p task
     * stay within the drop-rate bound?
     */
    bool dropBudgetAvailable(const sim::SchedulerContext& ctx,
                             workload::TaskId task) const;

private:
    double maxDropRate_;
};

} // namespace core
} // namespace dream

#endif // DREAM_CORE_FRAME_DROP_H
