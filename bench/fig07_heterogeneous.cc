/**
 * @file
 * Figure 7 reproduction: UXCost, deadline-violation rate and
 * normalised energy for all five scenarios on the four heterogeneous
 * hardware settings, across the evaluated schedulers (FCFS, Veltair,
 * Planaria, DREAM-MapScore, DREAM-SmartDrop, DREAM-Full).
 *
 * The whole (scenario x system x scheduler x seed) evaluation is one
 * engine sweep: --jobs shards the 360 runs across threads, --out
 * streams every per-seed row, and the per-cell means come from the
 * aggregating sink.
 *
 * The paper's headline numbers for this figure: DREAM reduces UXCost
 * by 32.1% vs Planaria and 50.0% vs Veltair in geomean, with up to
 * 80.8% (AR_Social, 4K 1WS+2OS) and 97.6% (Drone_Outdoor,
 * 4K 1WS+2OS) reductions.
 */

#include <cstdio>
#include <map>
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
    const auto schedulers = runner::evaluationSchedulers();

    engine::SweepGrid grid;
    for (const auto sc_preset : workload::allScenarioPresets())
        grid.addScenario(sc_preset);
    for (const auto sys_preset : hw::heterogeneousPresets())
        grid.addSystem(sys_preset);
    for (const auto kind : schedulers)
        grid.addScheduler(kind);
    grid.seeds(runner::defaultSeeds()).window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;

    // Per-cell means addressable by (scenario, system, scheduler).
    std::map<std::string, engine::AggregateSink::Cell> cells;
    for (const auto& cell : agg.cells())
        cells[cell.scenario + '|' + cell.system + '|' +
              cell.scheduler] = cell;
    const auto cellOf = [&](workload::ScenarioPreset sc,
                            hw::SystemPreset sys,
                            runner::SchedKind kind)
        -> const engine::AggregateSink::Cell& {
        return cells.at(workload::toString(sc) + '|' +
                        hw::toString(sys) + '|' +
                        runner::toString(kind));
    };

    // geomean accumulators across (scenario x system) per scheduler
    std::map<runner::SchedKind, std::vector<double>> ux_all;

    for (const auto sys_preset : hw::heterogeneousPresets()) {
        std::printf("== Figure 7: %s ==\n",
                    hw::toString(sys_preset).c_str());
        runner::Table ux({"Scenario", "FCFS", "Veltair", "Planaria",
                          "DRM-Map", "DRM-Drop", "DRM-Full"});
        runner::Table dlv = ux;
        runner::Table energy = ux;

        for (const auto sc_preset : workload::allScenarioPresets()) {
            std::vector<std::string> ux_row{toString(sc_preset)};
            std::vector<std::string> dlv_row{toString(sc_preset)};
            std::vector<std::string> en_row{toString(sc_preset)};
            for (const auto kind : schedulers) {
                const auto& cell = cellOf(sc_preset, sys_preset, kind);
                ux_row.push_back(runner::fmt(cell.uxCost.mean, 4));
                dlv_row.push_back(
                    runner::fmtPct(cell.violationFraction.mean));
                en_row.push_back(
                    runner::fmt(cell.normEnergy.mean, 3));
                ux_all[kind].push_back(cell.uxCost.mean);
            }
            ux.addRow(ux_row);
            dlv.addRow(dlv_row);
            energy.addRow(en_row);
        }
        std::printf("-- UXCost (lower is better)\n");
        ux.print();
        std::printf("-- Deadline violation rate (aggregate)\n");
        dlv.print();
        std::printf("-- Normalised energy (sum over models)\n");
        energy.print();
        std::printf("\n");
    }

    std::printf("== Figure 7 summary: geomean UXCost across "
                "scenario x heterogeneous system ==\n");
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
    std::printf("\npaper: DREAM-Full geomean UXCost reduction vs "
                "Planaria 32.1%%, vs Veltair 50.0%%\n");
    const double planaria =
        runner::geomean(ux_all[runner::SchedKind::Planaria]);
    const double veltair =
        runner::geomean(ux_all[runner::SchedKind::Veltair]);
    std::printf("measured: vs Planaria %s, vs Veltair %s\n",
                runner::fmtPct(1.0 - dream_full / planaria).c_str(),
                runner::fmtPct(1.0 - dream_full / veltair).c_str());
    return 0;
}
