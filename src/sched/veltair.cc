#include "sched/veltair.h"

#include <algorithm>

#include "sim/cost_cache.h"

namespace dream {
namespace sched {

namespace {

/** Block latency target with a single ready request (us), a
 *  modelling choice of this baseline. */
constexpr double kBaseBlockLatencyUs = 4000.0;
/** Lower bound on the adaptive block-latency threshold (us). */
constexpr double kMinBlockLatencyUs = 500.0;

} // anonymous namespace

size_t
VeltairScheduler::blockLength(const sim::SchedulerContext& ctx,
                              const sim::Request& req, size_t accel,
                              double threshold_us) const
{
    const auto& rows = sim::ensureCostCache(req, *ctx.costs).rows;
    double acc_latency = 0.0;
    size_t n = 0;
    for (size_t i = req.nextLayer; i < rows.size(); ++i) {
        acc_latency += rows[i].cost(accel).latencyUs;
        ++n;
        if (acc_latency >= threshold_us)
            break;
    }
    return std::max<size_t>(1, n);
}

sim::Plan
VeltairScheduler::plan(const sim::SchedulerContext& ctx)
{
    sim::Plan p;

    // EDF among ready requests.
    std::vector<const sim::Request*> ready = ctx.ready;
    std::sort(ready.begin(), ready.end(),
              [](const sim::Request* a, const sim::Request* b) {
                  if (a->deadlineUs != b->deadlineUs)
                      return a->deadlineUs < b->deadlineUs;
                  return a->id < b->id;
              });

    // Adaptive threshold: more contention -> smaller blocks (fewer
    // scheduling conflicts), as in VELTAIR's adaptive compilation.
    const double threshold =
        std::max(kMinBlockLatencyUs,
                 kBaseBlockLatencyUs /
                     double(std::max<size_t>(1, ready.size())));

    // Heterogeneity-blind placement (homogeneous-cluster assumption):
    // idle accelerators in longest-idle-first order.
    std::vector<size_t> idle;
    for (size_t a = 0; a < ctx.numAccels(); ++a) {
        if (ctx.accel(a).idle())
            idle.push_back(a);
    }
    std::sort(idle.begin(), idle.end(), [&ctx](size_t a, size_t b) {
        return ctx.accel(a).busyUntilUs < ctx.accel(b).busyUntilUs;
    });

    size_t next_ready = 0;
    for (const size_t a : idle) {
        if (next_ready >= ready.size())
            break;
        const sim::Request* req = ready[next_ready++];
        sim::Dispatch d;
        d.requestId = req->id;
        d.numLayers = blockLength(ctx, *req, a, threshold);
        d.accel = int(a);
        d.slices = 0;
        p.dispatches.push_back(d);
    }
    return p;
}

} // namespace sched
} // namespace dream
