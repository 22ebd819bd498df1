#include "core/mapscore.h"

#include <algorithm>
#include <cassert>

#include "costmodel/layer_cost.h"
#include "sim/context_switch.h"
#include "sim/cost_cache.h"

namespace dream {
namespace core {

namespace {

/**
 * Slack floor as a fraction of the task period. Overdue or imminent
 * deadlines saturate the urgency score at ToGo / (fraction * period)
 * instead of diverging — an already-late frame stays urgent but must
 * not starve every still-meetable frame in the system.
 */
constexpr double kMinSlackPeriodFraction = 0.1;

} // anonymous namespace

double
MapScoreEngine::minToGoUs(const sim::SchedulerContext& ctx,
                          const sim::Request& req) const
{
    const auto& cache = sim::ensureCostCache(req, *ctx.costs);
    return cache.suffixMin[req.nextLayer];
}

void
MapScoreEngine::clearScratch()
{
    variantScratch_.clear();
    scratchScenario_ = nullptr;
    scratchCosts_ = nullptr;
}

const MapScoreEngine::VariantScratch&
MapScoreEngine::variantScratch(const sim::SchedulerContext& ctx,
                               workload::TaskId task) const
{
    if (scratchScenario_ != ctx.scenario ||
        scratchCosts_ != ctx.costs ||
        variantScratch_.size() != ctx.scenario->tasks.size()) {
        variantScratch_.assign(ctx.scenario->tasks.size(),
                               VariantScratch{});
        scratchScenario_ = ctx.scenario;
        scratchCosts_ = ctx.costs;
    }
    VariantScratch& s = variantScratch_[size_t(task)];
    if (s.built)
        return s;

    const models::Model& model = ctx.scenario->tasks[task].model;
    const auto& costs = *ctx.costs;
    const size_t sp = model.supernetSwitchPoint;
    s.switchPoint = sp;
    s.headSuffixMinUs.assign(sp + 1, 0.0);
    for (size_t i = sp; i-- > 0;) {
        s.headSuffixMinUs[i] = costs.minLatencyUs(model.layers[i]) +
                               s.headSuffixMinUs[i + 1];
    }
    s.bodyMinUs.assign(model.variants.size() + 1, 0.0);
    for (size_t i = model.layers.size(); i-- > sp;)
        s.bodyMinUs[0] +=
            costs.minLatencyUs(model.layers[i]);
    for (size_t v = 0; v < model.variants.size(); ++v) {
        const auto& body = model.variants[v].bodyLayers;
        for (size_t i = body.size(); i-- > 0;)
            s.bodyMinUs[v + 1] += costs.minLatencyUs(body[i]);
    }
    s.built = true;
    return s;
}

double
MapScoreEngine::minToGoVariantUs(const sim::SchedulerContext& ctx,
                                 const sim::Request& req,
                                 size_t variant) const
{
    const VariantScratch& s = variantScratch(ctx, req.task);
    assert(req.nextLayer <= s.switchPoint &&
           "variant to-go past the switch point");
    return s.headSuffixMinUs[req.nextLayer] + s.bodyMinUs[variant];
}

double
MapScoreEngine::minToGoBestVariantUs(const sim::SchedulerContext& ctx,
                                     const sim::Request& req) const
{
    const models::Model& model = ctx.scenario->tasks[req.task].model;
    if (!model.isSupernet() || req.nextLayer > model.supernetSwitchPoint)
        return minToGoUs(ctx, req);
    double best = minToGoUs(ctx, req);
    for (size_t v = 1; v <= model.variants.size(); ++v)
        best = std::min(best, minToGoVariantUs(ctx, req, v));
    return best;
}

ScoreBreakdown
MapScoreEngine::score(const sim::SchedulerContext& ctx,
                      const sim::Request& req, size_t accel) const
{
    // The next layer's cached row serves every per-accelerator and
    // aggregate query below without a table lookup.
    const auto& cache = sim::ensureCostCache(req, *ctx.costs);
    const cost::CostTable::LayerView nv = cache.rows[req.nextLayer];

    ScoreBreakdown s;
    s.toGoUs = cache.suffixAvg[req.nextLayer];
    s.slackUs = req.deadlineUs - ctx.nowUs;

    // Line 7: urgency = ToGo / Slack (floored slack).
    const double min_slack =
        kMinSlackPeriodFraction *
        ctx.scenario->tasks[req.task].periodUs();
    s.urgency = s.toGoUs / std::max(s.slackUs, min_slack);

    // Line 8: latency preference = sum_i lat(next, i) / lat(next, acc).
    const double lat_here = nv.cost(accel).latencyUs;
    s.latPref = nv.agg().sumLatencyUs / lat_here;

    // Line 9: starvation = Tqueue / mean_i lat(next, i).
    const double t_queue = std::max(0.0, ctx.nowUs - req.lastEventUs);
    s.starvation = t_queue / nv.agg().avgLatencyUs;

    // Line 10: context-switch cost = CswitchEnergy / EstEnergy.
    const auto& acc_state = ctx.accel(accel);
    const double e_here = nv.cost(accel).energyMj;
    const sim::SwitchTraffic cs = sim::switchTraffic(acc_state, req);
    if (cs.any()) {
        s.costSwitch = cost::contextSwitchEnergyMj(cs.flushBytes,
                                                   cs.fetchBytes) /
                       e_here;
    }

    // Lines 11-13: energy preference minus switch cost.
    s.energyPref = nv.agg().sumEnergyMj / e_here;
    s.energy = s.energyPref - s.costSwitch;

    // Lines 14-15.
    s.mapScore = s.urgency * s.latPref + alpha_ * s.starvation +
                 beta_ * s.energy;
    return s;
}

} // namespace core
} // namespace dream
