#include "core/frame_drop.h"

#include <algorithm>

namespace dream {
namespace core {

namespace {

/** Section 4.2: the frame window of the drop-rate bound. */
constexpr int kDropRateWindowFrames = 10;

} // anonymous namespace

bool
FrameDropEngine::expectedViolation(const sim::SchedulerContext& ctx,
                                   const MapScoreEngine& scores,
                                   const sim::Request& req) const
{
    const double slack = req.deadlineUs - ctx.nowUs;
    // Variant-aware: a frame that Supernet switching can still save
    // is not a violation candidate.
    return scores.minToGoBestVariantUs(ctx, req) > slack;
}

bool
FrameDropEngine::dropBudgetAvailable(const sim::SchedulerContext& ctx,
                                     workload::TaskId task) const
{
    const auto& ts = ctx.stats->tasks[size_t(task)];
    // Cumulative-rate form of the per-window bound: one more drop must
    // keep the task at or under maxDropRate, evaluated against at
    // least one window's worth of frames so early drops are allowed.
    const double frames = std::max<double>(
        double(kDropRateWindowFrames),
        double(ts.completedFrames + ts.droppedFrames + 1));
    return (double(ts.droppedFrames) + 1.0) / frames <=
           maxDropRate_ + 1e-12;
}

const sim::Request*
FrameDropEngine::selectDrop(const sim::SchedulerContext& ctx,
                            const MapScoreEngine& scores) const
{
    const sim::Request* victim = nullptr;
    double worst_ratio = 0.0;
    for (const auto* req : ctx.ready) { // droppable: not in flight
        // Condition 4: drop-rate bound.
        if (!dropBudgetAvailable(ctx, req->task))
            continue;
        // Condition 3: only pipeline leaves may be dropped.
        if (!ctx.scenario->isLeaf(req->task))
            continue;
        // Condition 1, with expectedViolation's to-go kept for the
        // ratio.
        const double to_go = scores.minToGoBestVariantUs(ctx, *req);
        const double slack = req->deadlineUs - ctx.nowUs;
        if (to_go <= slack)
            continue;
        const double ratio = to_go / std::max(slack, 1.0);
        if (ratio > worst_ratio) {
            worst_ratio = ratio;
            victim = req;
        }
    }
    if (!victim)
        return nullptr;

    // Condition 2: more than one live job expected to violate. Only
    // "at least two" matters, so the walk stops at the second one.
    int expected_violations = 0;
    for (const auto* req : ctx.live) {
        if (expectedViolation(ctx, scores, *req) &&
            ++expected_violations == 2)
            return victim;
    }
    return nullptr;
}

} // namespace core
} // namespace dream
