#include "engine/param_eval.h"

#include <cassert>
#include <limits>

#include "core/dream_scheduler.h"
#include "runner/experiment.h"

namespace dream {
namespace engine {

core::DreamConfig
fixedParamConfig(double alpha, double beta)
{
    core::DreamConfig cfg = core::DreamConfig::fixedParams(alpha, beta);
    cfg.smartDrop = true;
    return cfg;
}

core::BatchCostFn
makeBatchEvaluator(const hw::SystemConfig& system,
                   const workload::Scenario& scenario,
                   const WorkerPool& pool, metrics::Objective objective)
{
    return [&system, &scenario, &pool, objective](const auto& pts) {
        std::vector<double> out(pts.size());
        pool.parallelFor(pts.size(), [&](size_t i) {
            core::DreamScheduler sched(
                fixedParamConfig(pts[i].first, pts[i].second));
            out[i] = metrics::evaluate(
                objective, runner::runOnce(system, scenario, sched,
                                           {kSearchWindowUs, kSearchSeed}));
        });
        return out;
    };
}

SchedulerSpec
dreamFixedParamScheduler()
{
    SchedulerSpec spec;
    spec.name = "DREAM-Fixed";
    spec.make = [](const ParamMap& params) {
        const core::DreamConfig cfg = fixedParamConfig(
            paramValue(params, "alpha"), paramValue(params, "beta"));
        return std::unique_ptr<sim::Scheduler>(
            std::make_unique<core::DreamScheduler>(cfg));
    };
    return spec;
}

SweepGrid
paramSpaceGrid(hw::SystemPreset system, workload::ScenarioPreset scenario,
               int n)
{
    assert(n >= 2 && "parameter grid needs at least 2 points per axis");
    SweepGrid grid;
    grid.addScenario(scenario)
        .addSystem(system)
        .linspaceParam("alpha", 0.0, 2.0, n)
        .linspaceParam("beta", 0.0, 2.0, n)
        .seeds({kSearchSeed})
        .window(kSearchWindowUs);
    const SchedulerSpec sched = dreamFixedParamScheduler();
    grid.addScheduler(sched.name, sched.make);
    return grid;
}

ParamOptimum
bestParams(const std::vector<RunRecord>& records)
{
    assert(!records.empty());
    ParamOptimum best;
    best.cost = std::numeric_limits<double>::max();
    for (const auto& r : records) {
        if (r.uxCost < best.cost) {
            best.alpha = paramValue(r.params, "alpha");
            best.beta = paramValue(r.params, "beta");
            best.cost = r.uxCost;
        }
    }
    return best;
}

} // namespace engine
} // namespace dream
