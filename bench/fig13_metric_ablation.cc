/**
 * @file
 * Figure 13 reproduction: what happens when the parameter
 * optimisation targets only the deadline-violation rate or only the
 * energy rate instead of UXCost. The paper reports single-metric
 * optimisation degrading the other metric (e.g. energy-only raises
 * VR_Gaming's violation rate by 34.2%, UXCost by 28.7%), while
 * UXCost optimisation balances both.
 *
 * Each search step's candidate batch is evaluated on the engine's
 * worker pool (--jobs); --out streams the per-objective re-evaluation
 * runs as result rows, and --shard K/N runs only the searches of its
 * own rows (bench::runRows).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_main.h"
#include "engine/param_eval.h"
#include "engine/param_search.h"
#include "runner/experiment.h"
#include "runner/table.h"

using namespace dream;

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv, bench::Kind::Rows);
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const workload::ScenarioPreset presets[] = {
        workload::ScenarioPreset::VrGaming,
        workload::ScenarioPreset::ArSocial};
    const double probs[] = {0.5, 0.9};
    const metrics::Objective objectives[] = {
        metrics::Objective::UxCost, metrics::Objective::DlvRateOnly,
        metrics::Objective::EnergyOnly};

    // Row r is (preset, cascade probability, objective), objective
    // fastest. Each row is one search plus the re-evaluation of the
    // parameters it found, so --shard runs only its own rows'
    // searches.
    std::vector<workload::Scenario> scenarios;
    for (const auto preset : presets) {
        for (const double prob : probs)
            scenarios.push_back(workload::makeScenario(preset, prob));
    }
    engine::WorkerPool pool(opts.jobs);
    const auto records = bench::runRows(
        opts, scenarios.size() * 3, [&](size_t lo, size_t hi) {
            std::vector<engine::RunRecord> out;
            for (size_t row = lo; row < hi; ++row) {
                const auto& scenario = scenarios[row / 3];
                const auto obj = objectives[row % 3];
                const auto eval = engine::makeBatchEvaluator(
                    system, scenario, pool, obj);
                engine::ParamSearch search(eval);
                const auto result = search.optimize(1.0, 1.0);
                // Re-evaluate the found parameters on all metrics.
                core::DreamScheduler sched(
                    engine::fixedParamConfig(result.alpha, result.beta));
                engine::RunRecord rec;
                rec.scenario = toString(presets[row / 6]) + "@p" +
                               engine::formatValue(probs[row / 3 % 2]);
                rec.system = system.name;
                rec.scheduler = std::string("DREAM-Fixed/opt=") +
                                metrics::toString(obj);
                rec.params = {{"alpha", result.alpha},
                              {"beta", result.beta}};
                rec.seed = engine::kSearchSeed;
                rec.windowUs = engine::kSearchWindowUs;
                engine::fillMetrics(
                    rec, runner::runOnce(system, scenario, sched,
                                         {rec.windowUs, rec.seed}));
                out.push_back(std::move(rec));
            }
            return out;
        });
    if (!records)
        return 0;

    for (size_t p = 0; p < 2; ++p) {
        std::printf("== Figure 13: %s on %s ==\n",
                    toString(presets[p]).c_str(), system.name.c_str());
        runner::Table t({"Cascade", "Objective", "alpha", "beta",
                         "UXCost", "DLVRate", "NormEnergy",
                         "UXCost vs UX-opt"});
        for (size_t row = 6 * p; row < 6 * p + 6; ++row) {
            const auto& r = (*records)[row];
            // The UXCost-objective row of this cascade probability.
            const double ux_opt = (*records)[row - row % 3].uxCost;
            const double alpha = engine::paramValue(r.params, "alpha");
            const double beta = engine::paramValue(r.params, "beta");
            t.addRow({runner::fmtPct(probs[row / 3 % 2], 0),
                      metrics::toString(objectives[row % 3]),
                      runner::fmt(alpha, 2), runner::fmt(beta, 2),
                      runner::fmt(r.uxCost, 4), runner::fmt(r.dlvRate, 4),
                      runner::fmt(r.normEnergy, 3),
                      runner::fmtPct(ux_opt > 0 ? r.uxCost / ux_opt - 1.0
                                                : 0.0)});
        }
        t.print();
        std::printf("\n");
    }
    std::printf("paper: single-metric optimisation degrades the "
                "other metric and ends with higher UXCost;\n"
                "UXCost optimisation balances both.\n");
    return 0;
}
