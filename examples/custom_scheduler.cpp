/**
 * @file
 * Plugging a custom scheduler into the simulator.
 *
 * Implements a minimal earliest-deadline-first (EDF) scheduler
 * against the public sim::Scheduler interface and benchmarks it
 * against FCFS and DREAM on the AR_Call workload: the three
 * schedulers are one engine::SweepGrid's scheduler axis, and an
 * engine::AggregateSink averages each over the default seeds. Use
 * this as the starting point for scheduling research on top of this
 * framework.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "engine/engine.h"
#include "runner/experiment.h"
#include "runner/table.h"
#include "sim/scheduler.h"

using namespace dream;

namespace {

/** Whole-model EDF on the first idle accelerator. */
class EdfScheduler : public sim::Scheduler {
public:
    std::string name() const override { return "EDF(custom)"; }

    sim::Plan
    plan(const sim::SchedulerContext& ctx) override
    {
        sim::Plan p;
        std::vector<const sim::Request*> ready = ctx.ready;
        std::sort(ready.begin(), ready.end(),
                  [](const sim::Request* a, const sim::Request* b) {
                      return a->deadlineUs < b->deadlineUs;
                  });
        size_t next = 0;
        for (size_t a = 0; a < ctx.numAccels() && next < ready.size();
             ++a) {
            if (!ctx.accel(a).idle())
                continue;
            const sim::Request* req = ready[next++];
            sim::Dispatch d;
            d.requestId = req->id;
            d.numLayers = req->remainingLayers(); // whole model
            d.accel = int(a);
            d.slices = 0;
            p.dispatches.push_back(d);
        }
        return p;
    }
};

} // namespace

int
main()
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);

    std::printf("Custom scheduler plug-in demo: EDF vs built-ins on "
                "AR_Call / %s\n\n", system.name.c_str());

    // Each grid point gets a fresh scheduler from its factory.
    const auto edf = [](const engine::ParamMap&) {
        return std::unique_ptr<sim::Scheduler>(
            std::make_unique<EdfScheduler>());
    };
    engine::SweepGrid grid;
    grid.addScenario(workload::ScenarioPreset::ArCall)
        .addSystem(hw::SystemPreset::Sys4k1Ws2Os)
        .addScheduler(runner::SchedKind::Fcfs)
        .addScheduler("EDF(custom)", edf)
        .addScheduler(runner::SchedKind::DreamFull)
        .seeds(runner::defaultSeeds())
        .window(runner::kDefaultWindowUs);
    engine::AggregateSink agg;
    engine::Engine().run(grid, {&agg});

    runner::Table t({"Scheduler", "UXCost", "DLV frames",
                     "Energy(mJ)"});
    for (const auto& cell : agg.cells()) {
        t.addRow({cell.scheduler, runner::fmt(cell.uxCost.mean, 4),
                  runner::fmtPct(cell.violationFraction.mean),
                  runner::fmt(cell.energyMj.mean, 1)});
    }
    t.print();
    std::printf("\nImplementing sim::Scheduler requires one method: "
                "plan(ctx) -> {switches, drops, dispatches}.\n");
    return 0;
}
