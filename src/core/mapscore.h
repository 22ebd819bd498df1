/**
 * @file
 * MapScore engine: the scoring metric of Algorithm 1.
 *
 * MapScore(tsk, acc) = ScoreUrgency(tsk) * ScoreLatPref(tsk, acc)
 *                    + alpha * ScoreStarv(tsk)
 *                    + beta  * ScoreEnergy(tsk, acc)
 *
 * where urgency is ToGo/Slack, latency preference is the inverse
 * significance of the next layer's latency on the accelerator,
 * starvation is queue time over mean next-layer latency, and energy
 * combines the inverse energy significance with the context-switch
 * energy penalty of displacing the accelerator's previous task.
 */

#ifndef DREAM_CORE_MAPSCORE_H
#define DREAM_CORE_MAPSCORE_H

#include <vector>

#include "costmodel/cost_table.h"
#include "sim/scheduler.h"

namespace dream {
namespace core {

/** All unit scores plus the combined MapScore for one (task, acc). */
struct ScoreBreakdown {
    double toGoUs = 0.0;
    double slackUs = 0.0;
    double urgency = 0.0;
    double latPref = 0.0;
    double starvation = 0.0;
    double energyPref = 0.0;
    double costSwitch = 0.0;
    double energy = 0.0;
    double mapScore = 0.0;
};

/**
 * Computes MapScore for (request, accelerator) pairs against a
 * SchedulerContext snapshot. Stateless apart from the tunable
 * (alpha, beta) parameters.
 */
class MapScoreEngine {
public:
    MapScoreEngine(double alpha, double beta)
        : alpha_(alpha), beta_(beta)
    {}

    double alpha() const { return alpha_; }
    double beta() const { return beta_; }
    void setParams(double alpha, double beta)
    {
        alpha_ = alpha;
        beta_ = beta;
    }

    /**
     * Minimum remaining time to completion assuming the best-latency
     * accelerator per layer and no context switches (the
     * minimum_to_go of the smart-frame-drop conditions).
     */
    double minToGoUs(const sim::SchedulerContext& ctx,
                     const sim::Request& req) const;

    /**
     * minToGoUs() assuming the most favourable Supernet variant is
     * still selectable (the drop engine must not retire a frame that
     * variant switching could save). Falls back to minToGoUs() for
     * non-Supernet requests or past the switch point.
     */
    double minToGoBestVariantUs(const sim::SchedulerContext& ctx,
                                const sim::Request& req) const;

    /**
     * minToGoUs() of the request's model's variantPath(@p variant)
     * from the request's next layer. Only valid at or before the
     * switch point (the callers' precondition — past it the path is
     * fixed). Served from a per-task scratch cache of suffix-min
     * sums, so no per-call path materialisation: the former
     * model.variantPath() allocation in the drop/switch hot loops.
     */
    double minToGoVariantUs(const sim::SchedulerContext& ctx,
                            const sim::Request& req,
                            size_t variant) const;

    /** Full Algorithm 1 evaluation for (request, accelerator). */
    ScoreBreakdown score(const sim::SchedulerContext& ctx,
                         const sim::Request& req, size_t accel) const;

    /**
     * Drop the per-run scratch caches (fresh run — scenario/cost
     * objects may be reused at the same addresses across runs, so
     * DreamScheduler::reset clears explicitly instead of trusting
     * pointer identity alone).
     */
    void clearScratch();

private:
    /**
     * Per-task Supernet to-go scratch: suffix-min sums over the
     * shared head (model.layers[i .. switchPoint)) plus each
     * variant's body total, so minToGoVariantUs is two array reads.
     * Accumulation is right-associated like the per-request suffix
     * caches (sim/cost_cache.cc).
     */
    struct VariantScratch {
        bool built = false;
        size_t switchPoint = 0;
        /** [i] = sum of min-latencies of layers[i .. switchPoint). */
        std::vector<double> headSuffixMinUs;
        /** [v] = min-latency total of variantPath(v)'s body. */
        std::vector<double> bodyMinUs;
    };

    const VariantScratch&
    variantScratch(const sim::SchedulerContext& ctx,
                   workload::TaskId task) const;

    double alpha_;
    double beta_;
    /** Scratch is per-scheduler-instance state; one simulation
     *  thread owns a scheduler, so no synchronisation. */
    mutable std::vector<VariantScratch> variantScratch_;
    mutable const void* scratchScenario_ = nullptr;
    mutable const void* scratchCosts_ = nullptr;
};

} // namespace core
} // namespace dream

#endif // DREAM_CORE_MAPSCORE_H
