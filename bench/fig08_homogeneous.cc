/**
 * @file
 * Figure 8 reproduction: UXCost on the four homogeneous hardware
 * settings (2WS / 2OS at 4K and 8K PEs). The paper's observations:
 * the UXCost gap between DREAM and the baselines shrinks relative to
 * the heterogeneous settings (2.20x for Veltair, 1.26x for
 * Planaria), and on compute-resource-sufficient systems (8K) the
 * DREAM variants coincide (drop/Supernet overheads are negligible).
 *
 * One engine sweep covers the whole (scenario x system x scheduler x
 * seed) space; the per-system tables come from the sink layer's
 * grouping helper.
 */

#include <cstdio>
#include <map>
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
    const auto schedulers = runner::evaluationSchedulers();

    engine::SweepGrid grid;
    for (const auto sc_preset : workload::allScenarioPresets())
        grid.addScenario(sc_preset);
    for (const auto sys_preset : hw::homogeneousPresets())
        grid.addSystem(sys_preset);
    for (const auto kind : schedulers)
        grid.addScheduler(kind);
    grid.seeds(runner::defaultSeeds()).window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    std::map<runner::SchedKind, std::vector<double>> ux_all;
    const auto by_system = engine::groupCells(
        cells, [](const engine::AggregateSink::Cell& c) {
            return c.system;
        });
    for (const auto& group : by_system) {
        std::printf("== Figure 8: %s ==\n", group.key.c_str());
        runner::Table ux({"Scenario", "FCFS", "Veltair", "Planaria",
                          "DRM-Map", "DRM-Drop", "DRM-Full"});
        const auto by_scenario = engine::groupCells(
            group.cells, [](const engine::AggregateSink::Cell& c) {
                return c.scenario;
            });
        for (const auto& scenario : by_scenario) {
            std::vector<std::string> row{scenario.key};
            for (size_t k = 0; k < schedulers.size(); ++k) {
                const auto& cell = engine::cellAt(
                    scenario.cells, scenario.key, group.key,
                    runner::toString(schedulers[k]));
                row.push_back(runner::fmt(cell.uxCost.mean, 4));
                ux_all[schedulers[k]].push_back(cell.uxCost.mean);
            }
            ux.addRow(row);
        }
        ux.print();
        std::printf("\n");
    }

    std::printf("== Figure 8 summary: geomean UXCost across "
                "scenario x homogeneous system ==\n");
    runner::Table summary({"Scheduler", "Geomean UXCost",
                           "vs DREAM-Full"});
    const double dream_full =
        runner::geomean(ux_all[runner::SchedKind::DreamFull]);
    for (const auto kind : schedulers) {
        const double g = runner::geomean(ux_all[kind]);
        summary.addRow({toString(kind), runner::fmt(g, 4),
                        runner::fmt(g / dream_full, 2) + "x"});
    }
    summary.print();
    std::printf("\npaper: the baseline-vs-DREAM gap on homogeneous "
                "hardware is smaller than on heterogeneous\n"
                "hardware (2.20x for Veltair, 1.26x for Planaria); "
                "compare with fig07_heterogeneous.\n");
    return 0;
}
