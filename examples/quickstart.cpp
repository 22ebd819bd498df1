/**
 * @file
 * Quickstart: run one RTMM scenario on one target system under the
 * DREAM scheduler and print the per-model outcome.
 *
 * Usage: quickstart [scenario] [system] [scheduler] [cascade%]
 *   scenario:  0..4  (VR_Gaming, AR_Call, Drone_Outdoor,
 *                     Drone_Indoor, AR_Social; default 4)
 *   system:    0..7  (Table 2 presets in order; default 4K-1OS+2WS)
 *   scheduler: fcfs | static | veltair | planaria | dream-map |
 *              dream-drop | dream-full (default dream-full)
 *   cascade%:  dependent-pipeline trigger probability (default 50)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics/uxcost.h"
#include "runner/experiment.h"
#include "runner/table.h"

using namespace dream;

namespace {

runner::SchedKind
parseScheduler(const char* s)
{
    const struct { const char* name; runner::SchedKind kind; } map[] = {
        {"fcfs", runner::SchedKind::Fcfs},
        {"static", runner::SchedKind::StaticFcfs},
        {"veltair", runner::SchedKind::Veltair},
        {"planaria", runner::SchedKind::Planaria},
        {"dream-map", runner::SchedKind::DreamMapScore},
        {"dream-drop", runner::SchedKind::DreamSmartDrop},
        {"dream-full", runner::SchedKind::DreamFull},
    };
    for (const auto& m : map) {
        if (std::strcmp(s, m.name) == 0)
            return m.kind;
    }
    std::fprintf(stderr, "unknown scheduler '%s', using dream-full\n",
                 s);
    return runner::SchedKind::DreamFull;
}

} // namespace

int
main(int argc, char** argv)
{
    const int scenario_idx = argc > 1 ? std::atoi(argv[1]) : 4;
    const int system_idx = argc > 2 ? std::atoi(argv[2]) : 3;
    const runner::SchedKind kind =
        argc > 3 ? parseScheduler(argv[3])
                 : runner::SchedKind::DreamFull;
    const double cascade =
        argc > 4 ? std::atof(argv[4]) / 100.0 : 0.5;

    const auto sc_presets = workload::allScenarioPresets();
    const auto sys_presets = hw::allSystemPresets();
    const auto sc_preset =
        sc_presets[size_t(scenario_idx) % sc_presets.size()];
    const auto sys_preset =
        sys_presets[size_t(system_idx) % sys_presets.size()];

    const auto system = hw::makeSystem(sys_preset);
    const auto scenario = workload::makeScenario(sc_preset, cascade);
    auto sched = runner::makeScheduler(kind);

    std::printf("scenario=%s system=%s scheduler=%s cascade=%s\n\n",
                scenario.name.c_str(), system.name.c_str(),
                sched->name().c_str(),
                runner::fmtPct(cascade, 0).c_str());

    const auto r = runner::runOnce(system, scenario, *sched,
                                   {runner::kDefaultWindowUs, 11});

    runner::Table t({"Model", "Frames", "Done", "Violated", "Dropped",
                     "DLVRate", "Energy(mJ)", "NormEnergy",
                     "AvgLat(ms)"});
    for (const auto& ts : r.tasks) {
        t.addRow({ts.model, std::to_string(ts.totalFrames),
                  std::to_string(ts.completedFrames),
                  std::to_string(ts.violatedFrames),
                  std::to_string(ts.droppedFrames),
                  runner::fmt(ts.dlvRate(), 3),
                  runner::fmt(ts.energyMj, 1),
                  runner::fmt(ts.normEnergy(), 3),
                  ts.completedFrames
                      ? runner::fmt(ts.sumLatencyUs /
                                        double(ts.completedFrames) /
                                        1e3,
                                    2)
                      : "-"});
    }
    t.print();
    for (const auto& ts : r.tasks) {
        if (ts.variantStarts.empty())
            continue;
        std::printf("\n%s subnet usage:", ts.model.c_str());
        for (size_t v = 0; v < ts.variantStarts.size(); ++v) {
            const auto starts = (unsigned long long)ts.variantStarts[v];
            if (v == 0)
                std::printf(" Original=%llu", starts);
            else
                std::printf(" v%zu=%llu", v, starts);
        }
        std::printf("\n");
    }
    std::printf("\ncontext switches: %llu (%.1f mJ)\n",
                (unsigned long long)r.contextSwitches,
                r.contextSwitchEnergyMj);
    std::printf("UXCost = %.4f  (overall DLV %.4f x norm energy "
                "%.4f)\n",
                metrics::uxCost(r), r.overallDlvRate(),
                r.overallNormEnergy());
    return 0;
}
