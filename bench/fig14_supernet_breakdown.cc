/**
 * @file
 * Figure 14 reproduction: which Supernet subnets DREAM-Full actually
 * dispatched for the context-understanding OFA model, on the 4K
 * heterogeneous accelerators, under light (50% cascade) and heavy
 * (99% cascade) system load. The paper reports mostly the Original
 * subnet under light load and a majority of lighter variants under
 * heavy load.
 *
 * Variant shares ride as breakdown columns on every engine record
 * ("OFA_Supernet_v<i>_share"), so the figure aggregates shares
 * across all seeds instead of inspecting a single run, and --out
 * streams them per seed.
 */

#include <cstdio>
#include <string>
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
    const hw::SystemPreset systems[] = {hw::SystemPreset::Sys4k1Ws2Os,
                                        hw::SystemPreset::Sys4k1Os2Ws};
    const workload::ScenarioPreset scenarios[] = {
        workload::ScenarioPreset::VrGaming,
        workload::ScenarioPreset::ArSocial};
    const double probs[] = {0.5, 0.99};

    const auto scenarioName = [](workload::ScenarioPreset preset,
                                 double prob) {
        return toString(preset) + "@p" + engine::formatValue(prob);
    };

    engine::SweepGrid grid;
    for (const auto sc_preset : scenarios) {
        for (const double prob : probs) {
            grid.addScenario(scenarioName(sc_preset, prob),
                             [sc_preset, prob]() {
                                 return workload::makeScenario(
                                     sc_preset, prob);
                             });
        }
    }
    for (const auto sys_preset : systems)
        grid.addSystem(sys_preset);
    grid.addScheduler(runner::SchedKind::DreamFull)
        .seeds(runner::defaultSeeds())
        .window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    std::printf("Figure 14: executed Supernet subnets under "
                "DREAM-Full (shares of started frames,\nmean across "
                "seeds)\n\n");
    runner::Table t({"System", "Scenario", "Cascade", "Original",
                     "v1", "v2", "v3 (lightest)"});
    for (const auto sys_preset : systems) {
        const std::string system = hw::toString(sys_preset);
        for (const auto sc_preset : scenarios) {
            for (const double prob : probs) {
                const auto& cell = engine::cellAt(
                    cells, scenarioName(sc_preset, prob), system,
                    runner::toString(runner::SchedKind::DreamFull));
                std::vector<std::string> row{system,
                                             toString(sc_preset),
                                             runner::fmtPct(prob, 0)};
                for (const auto& kv : cell.breakdown)
                    row.push_back(runner::fmtPct(kv.second.mean, 0));
                t.addRow(row);
            }
        }
    }
    t.print();
    std::printf("\npaper: >80%% Original under 50%% cascade; >40-60%% "
                "lighter variants under heavy (99%%) load\n");
    return 0;
}
