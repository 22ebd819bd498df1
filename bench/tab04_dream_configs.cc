/**
 * @file
 * Table 4 reproduction (DREAM configuration variants) plus the
 * Table 1 / Table 5 qualitative capability matrix of all implemented
 * schedulers, extended with a measured column per Table 4 row: each
 * configuration's UXCost on VR_Gaming through one engine sweep.
 */

#include <cstdio>
#include <vector>

#include "bench_main.h"
#include "core/dream_config.h"
#include "engine/engine.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "sched/traits.h"

using namespace dream;

namespace {

const char*
mark(bool b)
{
    return b ? "yes" : "-";
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opts = bench::parseArgs(argc, argv);
    const runner::SchedKind variants[] = {
        runner::SchedKind::DreamMapScore,
        runner::SchedKind::DreamSmartDrop,
        runner::SchedKind::DreamFull};

    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::VrGaming)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os);
    for (const auto kind : variants)
        grid.addScheduler(kind);
    grid.seeds(runner::defaultSeeds()).window(runner::kDefaultWindowUs);

    engine::AggregateSink agg;
    if (!bench::run(opts, {{grid}}, {&agg}))
        return 0;
    const auto cells = agg.cells();

    std::printf("Table 4: DREAM configurations used in the "
                "evaluation\n(measured column: VR_Gaming on %s, mean "
                "across seeds)\n\n",
                hw::toString(hw::SystemPreset::Sys4k1Ws2Os).c_str());
    runner::Table t4({"Configuration", "Param optimisation",
                      "Smart frame drop", "Supernet switching",
                      "UXCost"});
    const struct {
        runner::SchedKind kind;
        core::DreamConfig cfg;
    } rows[] = {
        {runner::SchedKind::DreamMapScore,
         core::DreamConfig::mapScore()},
        {runner::SchedKind::DreamSmartDrop,
         core::DreamConfig::smartDropConfig()},
        {runner::SchedKind::DreamFull, core::DreamConfig::full()},
    };
    for (const auto& r : rows) {
        const auto& cell = engine::cellAt(
            cells, "VR_Gaming",
            hw::toString(hw::SystemPreset::Sys4k1Ws2Os),
            runner::toString(r.kind));
        t4.addRow({runner::toString(r.kind),
                   mark(r.cfg.paramOptimization), mark(r.cfg.smartDrop),
                   mark(r.cfg.supernetSwitch),
                   runner::fmt(cell.uxCost.mean, 4)});
    }
    t4.print();

    std::printf("\nTables 1/5: RTMM challenge coverage per "
                "scheduler\n\n");
    runner::Table t1({"Scheduler", "Cascade", "Concurrent",
                      "Real-time", "Task dyn.", "Model dyn.", "Energy",
                      "Heterogeneity"});
    for (const auto& tr : sched::allSchedulerTraits()) {
        t1.addRow({tr.name, mark(tr.cascade), mark(tr.concurrent),
                   mark(tr.realTime), mark(tr.taskDynamicity),
                   mark(tr.modelDynamicity), mark(tr.energy),
                   mark(tr.heterogeneity)});
    }
    t1.print();
    return 0;
}
