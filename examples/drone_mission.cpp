/**
 * @file
 * Drone mission example: task-level dynamicity.
 *
 * A drone flies indoors, transitions outdoors mid-mission and returns
 * — the navigation stack swaps between the Drone_Indoor and
 * Drone_Outdoor model sets (Section 2.2's task-level dynamicity,
 * e.g. "if a drone flying in a building moves out from the building,
 * the navigation ML model should be updated"). The example builds one
 * combined scenario whose tasks activate/deactivate over time and
 * compares DREAM against FCFS across the phase changes.
 */

#include <cstdio>

#include "metrics/uxcost.h"
#include "models/zoo.h"
#include "runner/experiment.h"
#include "runner/table.h"

using namespace dream;

namespace {

workload::Scenario
droneMission()
{
    using namespace models::zoo;
    constexpr double kPhaseUs = 1.0e6; // indoor / outdoor / indoor

    workload::Scenario s;
    s.name = "Drone_Mission";
    auto add = [&s](models::Model m, double fps, double start,
                    double end) {
        workload::TaskSpec t;
        t.model = std::move(m);
        t.fps = fps;
        t.startUs = start;
        t.endUs = end;
        s.tasks.push_back(std::move(t));
    };
    // Object detection and obstacle avoidance run for the whole
    // mission; navigation models swap with the environment.
    add(ssdMobileNetV2(), 30, 0.0, 3 * kPhaseUs);
    add(sosNet(), 60, 0.0, 3 * kPhaseUs);
    add(rapidRl(), 60, 0.0, kPhaseUs);                  // indoor leg
    add(googLeNetCar(), 60, 0.0, kPhaseUs);             // parking lot
    add(trailNet(), 60, kPhaseUs, 2 * kPhaseUs);        // outdoor leg
    add(rapidRl(), 60, 2 * kPhaseUs, 3 * kPhaseUs);     // back inside
    return s;
}

} // namespace

int
main()
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario = droneMission();

    std::printf("Drone mission on %s: indoor -> outdoor -> indoor "
                "(1 s per phase)\n\n", system.name.c_str());

    runner::Table t({"Scheduler", "UXCost", "DLV frames", "Energy(mJ)",
                     "Ctx switches"});
    for (const auto kind :
         {runner::SchedKind::Fcfs, runner::SchedKind::Planaria,
          runner::SchedKind::DreamFull}) {
        auto sched = runner::makeScheduler(kind);
        const auto r =
            runner::runOnce(system, scenario, *sched, {3e6, 11});
        t.addRow({sched->name(), runner::fmt(metrics::uxCost(r), 4),
                  std::to_string(r.totalViolated()) + "/" +
                      std::to_string(r.totalFrames()),
                  runner::fmt(r.totalEnergyMj(), 1),
                  std::to_string(r.contextSwitches)});
    }
    t.print();

    std::printf("\nPer-model outcome under DREAM-Full:\n");
    auto dream = runner::makeScheduler(runner::SchedKind::DreamFull);
    const auto r = runner::runOnce(system, scenario, *dream, {3e6, 11});
    runner::Table d({"Model", "Frames", "Violated", "DLVRate"});
    for (const auto& ts : r.tasks) {
        d.addRow({ts.model, std::to_string(ts.totalFrames),
                  std::to_string(ts.violatedFrames),
                  runner::fmt(ts.dlvRate(), 3)});
    }
    d.print();
    return 0;
}
