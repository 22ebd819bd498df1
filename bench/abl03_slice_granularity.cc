/**
 * @file
 * Ablation: spatial-partition (slice) granularity. DESIGN.md models
 * each accelerator as divisible into 4 equal slices for Planaria's
 * fission. This sweep varies the granularity and shows its effect on
 * Planaria (which depends on fission) and DREAM (which does not).
 *
 * The granularity is a custom system axis of one engine sweep
 * ("4K-1OS+2WS/s<N>" entries), so the whole ablation runs with
 * --jobs / --out / --filter.
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
    const uint32_t slice_counts[] = {1u, 2u, 4u, 8u};

    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::DroneIndoor);
    for (const uint32_t slices : slice_counts) {
        grid.addSystem(
            hw::toString(hw::SystemPreset::Sys4k1Os2Ws) + "/s" +
                std::to_string(slices),
            [slices]() {
                auto system =
                    hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
                for (auto& acc : system.accelerators)
                    acc.numSlices = slices;
                return system;
            });
    }
    grid.addScheduler(runner::SchedKind::Planaria)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds(runner::defaultSeeds())
        .window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    std::printf("Ablation: accelerator slice granularity "
                "(Drone_Indoor)\n\n");
    runner::Table t({"Slices", "Planaria UXCost", "DREAM-Full UXCost"});
    for (const uint32_t slices : slice_counts) {
        const std::string system =
            hw::toString(hw::SystemPreset::Sys4k1Os2Ws) + "/s" +
            std::to_string(slices);
        std::vector<std::string> row{std::to_string(slices)};
        for (const auto kind : {runner::SchedKind::Planaria,
                                runner::SchedKind::DreamFull}) {
            const auto& cell =
                engine::cellAt(cells, "Drone_Indoor", system,
                               runner::toString(kind));
            row.push_back(runner::fmt(cell.uxCost.mean, 4));
        }
        t.addRow(row);
    }
    t.print();
    std::printf("\nPlanaria's deadline-aware fission needs enough "
                "granularity to co-locate; DREAM's whole-\n"
                "accelerator layer routing is insensitive to it.\n");
    return 0;
}
