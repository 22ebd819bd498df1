/**
 * @file
 * Figure 12 reproduction: UXCost of VR_Gaming and AR_Social while
 * sweeping the ML-cascade-pipeline probability from 50% to 99% on the
 * 4K heterogeneous accelerators. The paper reports DREAM's advantage
 * growing with system load, and smart frame drop / Supernet switching
 * becoming effective: for AR_Social (99%) on 1WS+2OS,
 * DREAM-SmartDrop reduces UXCost by 48.1% over DREAM-MapScore, and
 * DREAM-Full by a further 65.5%.
 *
 * The cascade probability is a scenario axis of one engine sweep
 * (scenario names carry the "@p" suffix), so the whole figure runs
 * with --jobs / --out / --filter.
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
    const double probs[] = {0.5, 0.9, 0.99};
    const workload::ScenarioPreset scenarios[] = {
        workload::ScenarioPreset::VrGaming,
        workload::ScenarioPreset::ArSocial};
    const hw::SystemPreset systems[] = {
        hw::SystemPreset::Sys4k1Ws2Os, hw::SystemPreset::Sys4k1Os2Ws};
    const auto schedulers = runner::evaluationSchedulers();

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
    for (const auto kind : schedulers)
        grid.addScheduler(kind);
    grid.seeds(runner::defaultSeeds()).window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    for (const auto sys_preset : systems) {
        const std::string system = hw::toString(sys_preset);
        for (const auto sc_preset : scenarios) {
            std::printf("== Figure 12: %s on %s ==\n",
                        toString(sc_preset).c_str(), system.c_str());
            runner::Table t({"CascadeProb", "FCFS", "Veltair",
                             "Planaria", "DRM-Map", "DRM-Drop",
                             "DRM-Full"});
            for (const double prob : probs) {
                std::vector<std::string> row{runner::fmtPct(prob, 0)};
                for (const auto kind : schedulers) {
                    const auto& cell = engine::cellAt(
                        cells, scenarioName(sc_preset, prob), system,
                        runner::toString(kind));
                    row.push_back(runner::fmt(cell.uxCost.mean, 4));
                }
                t.addRow(row);
            }
            t.print();
            std::printf("\n");
        }
    }
    return 0;
}
