/**
 * @file
 * Veltair-style baseline: adaptive layer-block scheduling.
 *
 * VELTAIR (Liu et al., ASPLOS'22) targets multi-tenant DL serving on
 * a homogeneous CPU cluster and schedules *layer blocks* — groups of
 * consecutive layers sized adaptively to balance scheduling conflicts
 * against scheduling overhead. Per the paper's methodology (§5.1) we
 * model its layer-blocking scheme and scheduler: earliest-deadline-
 * first block dispatch, with an adaptive block-latency threshold that
 * shrinks under contention. The homogeneous-cluster assumption means
 * placement is heterogeneity-blind (first idle accelerator), and no
 * energy awareness — its documented weaknesses on RTMM workloads.
 */

#ifndef DREAM_SCHED_VELTAIR_H
#define DREAM_SCHED_VELTAIR_H

#include "sim/scheduler.h"

namespace dream {
namespace sched {

/** Adaptive layer-block EDF scheduler. */
class VeltairScheduler : public sim::Scheduler {
public:
    std::string name() const override { return "Veltair"; }

    sim::Plan plan(const sim::SchedulerContext& ctx) override;

    /**
     * Number of layers of @p req to group into the next block so the
     * block latency stays under @p threshold_us on @p accel
     * (exposed for testing). Always at least one layer.
     */
    size_t blockLength(const sim::SchedulerContext& ctx,
                       const sim::Request& req, size_t accel,
                       double threshold_us) const;
};

} // namespace sched
} // namespace dream

#endif // DREAM_SCHED_VELTAIR_H
