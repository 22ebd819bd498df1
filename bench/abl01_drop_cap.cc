/**
 * @file
 * Ablation: the maximum frame-drop rate bound (Condition 4 of the
 * Smart Frame Drop engine). The paper defaults to 2 drops per 10
 * frames and evaluates with a 20% cap; this sweep shows how the cap
 * trades the dropped task's frame rate against everyone else's
 * deadlines under heavy load.
 *
 * The cap is a free parameter axis of one engine sweep; drop and
 * violation rates aggregate across all seeds.
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

    engine::SweepGrid grid;
    grid.addScenario("VR_Gaming@p0.99",
                     []() {
                         return workload::makeScenario(
                             workload::ScenarioPreset::VrGaming, 0.99);
                     })
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler("DREAM-DropCap",
                      [](const engine::ParamMap& params) {
                          const double cap =
                              engine::paramValue(params, "drop_cap");
                          auto cfg = core::DreamConfig::full();
                          cfg.maxDropRate = cap;
                          cfg.smartDrop = cap > 0.0;
                          return std::unique_ptr<sim::Scheduler>(
                              std::make_unique<core::DreamScheduler>(
                                  cfg));
                      })
        .addParam("drop_cap", {0.0, 0.1, 0.2, 0.4, 1.0})
        .seeds(runner::defaultSeeds())
        .window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;

    std::printf("Ablation: max frame-drop rate (VR_Gaming @ 99%% "
                "cascade on %s)\n\n",
                hw::toString(hw::SystemPreset::Sys4k1Ws2Os).c_str());
    runner::Table t({"Drop cap", "UXCost", "Violated", "Drop rate",
                     "Energy(mJ)"});
    for (const auto& cell : agg.cells()) {
        t.addRow({runner::fmtPct(
                      engine::paramValue(cell.params, "drop_cap"), 0),
                  runner::fmt(cell.uxCost.mean, 4),
                  runner::fmtPct(cell.violationFraction.mean),
                  runner::fmtPct(cell.dropRate.mean),
                  runner::fmt(cell.energyMj.mean, 1)});
    }
    t.print();
    std::printf("\npaper default: up to 2 drops per 10 frames; the "
                "evaluation uses a 20%% cap.\n");
    return 0;
}
