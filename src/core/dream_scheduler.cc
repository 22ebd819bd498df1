#include "core/dream_scheduler.h"

#include <algorithm>
#include <limits>
#include <string>

#include "sim/cost_cache.h"

namespace dream {
namespace core {

namespace {

/**
 * Settle-vs-wait rule, added beyond Algorithm 1: the fraction of the
 * slack that waiting for a preferred accelerator may use.
 */
constexpr double kWaitSafety = 0.7;

/**
 * True when deferring @p req until a well-matched accelerator frees
 * up still leaves enough slack to finish in time.
 */
bool
waitIsSafe(const sim::SchedulerContext& ctx, const sim::Request& req,
           const cost::CostTable::LayerView& next_view,
           double best_next_lat, const DreamConfig& cfg)
{
    double earliest_free = std::numeric_limits<double>::max();
    for (size_t a = 0; a < ctx.numAccels(); ++a) {
        const double lat = next_view.cost(a).latencyUs;
        if (lat <= cfg.settleFactor * best_next_lat) {
            const auto& acc = ctx.accel(a);
            earliest_free = std::min(
                earliest_free,
                acc.idle() ? ctx.nowUs : acc.busyUntilUs);
        }
    }
    if (earliest_free == std::numeric_limits<double>::max())
        return false;
    const double slack = req.deadlineUs - ctx.nowUs;
    const double wait = earliest_free - ctx.nowUs;
    // Optimistic remaining time once the preferred accelerator frees.
    double min_to_go = 0.0;
    {
        const auto& cache = sim::ensureCostCache(req, *ctx.costs);
        min_to_go = cache.suffixMin[req.nextLayer];
    }
    return wait + min_to_go <= kWaitSafety * slack;
}

} // anonymous namespace

DreamScheduler::DreamScheduler(DreamConfig config)
    : config_(config), engine_(config.alpha, config.beta),
      dropEngine_(config.maxDropRate), tuner_(config)
{
}

std::string
DreamScheduler::name() const
{
    if (!config_.paramOptimization)
        return "DREAM-Fixed";
    if (!config_.smartDrop)
        return "DREAM-MapScore";
    if (!config_.supernetSwitch)
        return "DREAM-SmartDrop";
    return "DREAM-Full";
}

void
DreamScheduler::reset(const sim::SchedulerContext& ctx)
{
    (void)ctx;
    engine_.setParams(config_.alpha, config_.beta);
    // Scenario/cost objects of the new run may reuse the previous
    // run's addresses — drop the scratch caches explicitly.
    engine_.clearScratch();
    tuner_.reset();
}

sim::Plan
DreamScheduler::plan(const sim::SchedulerContext& ctx)
{
    sim::Plan p;

    // Adaptivity engine: advance online tuning without blocking
    // the dispatch flow.
    p.wakeUpUs = tuner_.update(ctx, engine_);

    // Smart frame drop: retire at most one doomed frame per round;
    // the simulator re-invokes us with the refreshed state.
    if (config_.smartDrop) {
        if (const auto* victim = dropEngine_.selectDrop(ctx, engine_)) {
            p.drops.push_back({victim->id});
            return p;
        }
    }

    // Job assignment: highest-MapScore (request, accelerator) pair
    // among ready heads and idle accelerators. A pair whose
    // accelerator is far off the request's best latency is skipped
    // while waiting for a preferred accelerator still meets the
    // deadline — dispatching a 60 FPS vision layer onto a 10x-slower
    // dataflow "because it is idle" is worse than a short wait
    // (the current-system-load consideration of Section 3.1).
    const size_t num_accels = ctx.numAccels();
    bool any_idle = false;
    for (size_t a = 0; a < num_accels && !any_idle; ++a)
        any_idle = ctx.accel(a).idle();
    if (!any_idle) // no pair to score
        return p;
    const sim::Request* best_req = nullptr;
    size_t best_acc = 0;
    double best_score = -std::numeric_limits<double>::max();
    for (const auto* req : ctx.ready) {
        // The head's cached row; its precomputed aggregate IS the
        // former min-over-accelerators loop.
        const cost::CostTable::LayerView nv =
            sim::ensureCostCache(*req, *ctx.costs).rows[req->nextLayer];
        const double best_lat = nv.agg().minLatencyUs;
        for (size_t a = 0; a < num_accels; ++a) {
            if (!ctx.accel(a).idle())
                continue;
            const double lat_here = nv.cost(a).latencyUs;
            if (config_.settleFactor > 0.0 &&
                lat_here > config_.settleFactor * best_lat &&
                waitIsSafe(ctx, *req, nv, best_lat, config_)) {
                continue;
            }
            const ScoreBreakdown s = engine_.score(ctx, *req, a);
            if (s.mapScore > best_score) {
                best_score = s.mapScore;
                best_req = req;
                best_acc = a;
            }
        }
    }
    if (!best_req)
        return p;

    // Supernet switching at (or before) the switch point.
    if (config_.supernetSwitch) {
        if (const auto variant =
                supernetEngine_.chooseVariant(ctx, engine_, *best_req)) {
            p.switches.push_back({best_req->id, *variant});
        }
    }

    sim::Dispatch d;
    d.requestId = best_req->id;
    d.numLayers = 1;
    d.accel = int(best_acc);
    d.slices = 0; // whole accelerator
    p.dispatches.push_back(d);
    return p;
}

} // namespace core
} // namespace dream
