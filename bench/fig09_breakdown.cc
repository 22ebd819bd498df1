/**
 * @file
 * Figure 9 reproduction: geomean UXCost improvement breakdown of
 * DREAM's optimisation components over the fixed-parameter MapScore
 * baseline (alpha = beta = 1), for VR_Gaming and AR_Social (the
 * Supernet-carrying scenarios) on 4K and 8K hardware.
 *
 * Paper: parameter optimisation alone improves UXCost by 49.2% (4K)
 * and 21.0% (8K); smart frame drop adds ~16.5% (4K) / 13.8% (8K);
 * Supernet switching adds a further 6-9%.
 *
 * One engine sweep covers every (scenario x system x DREAM-variant x
 * seed) run; the stage-gain ratio columns are computed from the
 * aggregated cells.
 */

#include <cstdio>
#include <vector>

#include "bench_main.h"
#include "engine/engine.h"
#include "runner/experiment.h"
#include "runner/table.h"

using namespace dream;

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);
    const runner::SchedKind stages[] = {
        runner::SchedKind::DreamFixed,
        runner::SchedKind::DreamMapScore,
        runner::SchedKind::DreamSmartDrop,
        runner::SchedKind::DreamFull};

    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addScenario(workload::ScenarioPreset::ArSocial);
    for (const auto sys_preset : {hw::SystemPreset::Sys4k1Ws2Os,
                                  hw::SystemPreset::Sys4k1Os2Ws,
                                  hw::SystemPreset::Sys8k1Ws2Os,
                                  hw::SystemPreset::Sys8k1Os2Ws}) {
        grid.addSystem(sys_preset);
    }
    for (const auto kind : stages)
        grid.addScheduler(kind);
    grid.seeds(runner::defaultSeeds()).window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    std::printf("Figure 9: VR_Gaming + AR_Social geomean UXCost "
                "improvement breakdown\n(vs MapScore with fixed "
                "alpha = beta = 1)\n\n");
    runner::Table t({"System", "Fixed(1,1)", "+ParamOpt", "+SmartDrop",
                     "+Supernet", "ParamOpt gain", "Drop gain",
                     "Supernet gain"});
    const auto by_system = engine::groupCells(
        cells, [](const engine::AggregateSink::Cell& c) {
            return c.system;
        });
    for (const auto& group : by_system) {
        // Geomean across the two scenarios, per optimisation stage.
        std::vector<double> stage_ux;
        for (const auto kind : stages) {
            std::vector<double> ux;
            for (const auto& cell : group.cells) {
                if (cell.scheduler == runner::toString(kind))
                    ux.push_back(cell.uxCost.mean);
            }
            stage_ux.push_back(runner::geomean(ux));
        }
        t.addRow({group.key, runner::fmt(stage_ux[0], 4),
                  runner::fmt(stage_ux[1], 4),
                  runner::fmt(stage_ux[2], 4),
                  runner::fmt(stage_ux[3], 4),
                  runner::fmtPct(1.0 - stage_ux[1] / stage_ux[0]),
                  runner::fmtPct(1.0 - stage_ux[2] / stage_ux[1]),
                  runner::fmtPct(1.0 - stage_ux[3] / stage_ux[2])});
    }
    t.print();
    std::printf("\npaper: ParamOpt 49.2%% (4K) / 21.0%% (8K); "
                "SmartDrop ~16.5%% / 13.8%%; Supernet 6-9%%\n");
    return 0;
}
