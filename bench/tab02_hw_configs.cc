/**
 * @file
 * Table 2 reproduction: the eight evaluated accelerator systems
 * (sizes, styles, dataflow partitioning) plus the shared memory
 * parameters the paper specifies (8 MiB SRAM, 90 GB/s, 700 MHz),
 * extended with a measured characterisation sweep: DREAM-Full's
 * UXCost and violation rate on VR_Gaming per system, grouped into
 * the paper's homogeneous/heterogeneous halves via the sink layer.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_main.h"
#include "engine/engine.h"
#include "hw/system.h"
#include "runner/experiment.h"
#include "runner/table.h"

using namespace dream;

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);

    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming);
    for (const auto preset : hw::allSystemPresets())
        grid.addSystem(preset);
    grid.addScheduler(runner::SchedKind::DreamFull)
        .seeds(runner::defaultSeeds())
        .window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    std::printf("Table 2: evaluated accelerator hardware settings\n"
                "(measured columns: DREAM-Full on VR_Gaming, mean "
                "across seeds)\n\n");
    const auto by_style = engine::groupCells(
        cells, [](const engine::AggregateSink::Cell& c) {
            // Recover the preset from the cell's system name to
            // group into the paper's two halves of Table 2.
            hw::SystemPreset preset;
            if (!hw::parseSystemPreset(c.system, &preset))
                return std::string("?");
            return hw::makeSystem(preset).homogeneous()
                       ? std::string("Homogeneous")
                       : std::string("Heterogeneous");
        });
    for (const auto& group : by_style) {
        std::printf("== %s ==\n", group.key.c_str());
        runner::Table t({"System", "Total PEs", "Sub-accelerators",
                         "UXCost", "Violated"});
        for (const auto& cell : group.cells) {
            hw::SystemConfig sys;
            hw::SystemPreset preset;
            if (hw::parseSystemPreset(cell.system, &preset))
                sys = hw::makeSystem(preset);
            std::string subs;
            for (const auto& acc : sys.accelerators) {
                if (!subs.empty())
                    subs += " + ";
                subs += toString(acc.dataflow) + "(" +
                        std::to_string(acc.numPes) + ")";
            }
            t.addRow({sys.name, std::to_string(sys.totalPes()), subs,
                      runner::fmt(cell.uxCost.mean, 4),
                      runner::fmtPct(cell.violationFraction.mean)});
        }
        t.print();
        std::printf("\n");
    }

    const auto probe = hw::makeSystem(hw::SystemPreset::Sys4k2Ws);
    const auto& acc = probe.accelerators.front();
    std::printf("shared parameters: %.0f MiB SRAM, %.0f GB/s "
                "off-chip bandwidth, %.0f MHz clock, %u slices per "
                "accelerator\n",
                double(acc.sramBytes) / (1024.0 * 1024.0), acc.dramGbps,
                acc.clockMhz, acc.numSlices);
    return 0;
}
