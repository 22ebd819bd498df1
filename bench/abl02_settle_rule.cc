/**
 * @file
 * Ablation: the dispatch engine's settle-vs-wait rule. DESIGN.md
 * calls this choice out: dispatching a layer onto a badly-matched
 * dataflow "because it is idle" can be worse than a short wait for
 * the preferred accelerator. settleFactor = 0 disables the rule
 * (pure greedy highest-MapScore dispatch); larger factors tolerate
 * ever worse placements before deferring.
 *
 * The factor is a free parameter axis of one engine sweep over both
 * scenarios and both 4K heterogeneous systems; tables group per
 * system via the sink layer.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_main.h"
#include "core/dream_scheduler.h"
#include "engine/engine.h"
#include "runner/experiment.h"
#include "runner/table.h"

using namespace dream;

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);
    const std::vector<double> factors = {0.0, 1.5, 2.5, 5.0, 10.0};

    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addScenario(workload::ScenarioPreset::ArSocial)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addSystem(hw::SystemPreset::Sys4k1Os2Ws)
        .addScheduler("DREAM-Settle",
                      [](const engine::ParamMap& params) {
                          auto cfg = core::DreamConfig::full();
                          cfg.settleFactor =
                              engine::paramValue(params, "settle");
                          return std::unique_ptr<sim::Scheduler>(
                              std::make_unique<core::DreamScheduler>(
                                  cfg));
                      })
        .addParam("settle", factors)
        .seeds(runner::defaultSeeds())
        .window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    std::printf("Ablation: settle-vs-wait rule of the DREAM dispatch "
                "engine\n\n");
    const auto by_system = engine::groupCells(
        cells, [](const engine::AggregateSink::Cell& c) {
            return c.system;
        });
    for (const auto& group : by_system) {
        runner::Table t({"settleFactor", "VR_Gaming UXCost",
                         "AR_Social UXCost"});
        for (const double factor : factors) {
            std::vector<std::string> row{
                factor == 0.0 ? "off" : runner::fmt(factor, 1)};
            for (const char* scenario : {"VR_Gaming", "AR_Social"}) {
                const auto& cell = engine::cellAt(
                    group.cells, scenario, group.key, "DREAM-Settle",
                    {{"settle", factor}});
                row.push_back(runner::fmt(cell.uxCost.mean, 4));
            }
            t.addRow(row);
        }
        std::printf("== %s ==\n", group.key.c_str());
        t.print();
        std::printf("\n");
    }
    return 0;
}
