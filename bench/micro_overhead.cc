/**
 * @file
 * Scheduler-overhead accounting: how often each evaluated scheduler
 * is invoked over a short VR_Gaming window. The paper argues DREAM's
 * scoring is light-weight enough to run at every scheduling event;
 * these deterministic counts (streamed through --out, byte-identical
 * for any --jobs value) say how many events that is. Wall-clock
 * costs of MapScore, a plan round and cost-table lookups are
 * perfbench's micro section (perfbench/README.md).
 */

#include <cstdio>
#include <string>

#include "bench_main.h"
#include "engine/engine.h"
#include "hw/system.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "workload/scenario.h"

using namespace dream;

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);

    // Deterministic scheduler-invocation accounting through the
    // engine (one short window per evaluated scheduler).
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os);
    for (const auto kind : runner::evaluationSchedulers())
        grid.addScheduler(kind);
    grid.seeds({11}).window(5e5);

    const auto records = bench::run(opts, {{grid}});
    if (!records)
        return 0;

    std::printf("Scheduler invocations over a %.1f ms VR_Gaming "
                "window on %s\n\n", 5e5 / 1e3,
                hw::toString(hw::SystemPreset::Sys4k1Ws2Os).c_str());
    runner::Table inv({"Scheduler", "Invocations", "Invocations/s",
                       "Frames"});
    for (const auto& r : *records) {
        inv.addRow({r.scheduler,
                    std::to_string(r.schedulerInvocations),
                    runner::fmt(double(r.schedulerInvocations) /
                                    (r.windowUs / 1e6), 0),
                    std::to_string(r.totalFrames)});
    }
    inv.print();
    return 0;
}
