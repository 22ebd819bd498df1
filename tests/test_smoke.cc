/**
 * @file
 * End-to-end smoke test: every scheduler completes a short window of
 * every scenario on a representative system without tripping any
 * simulator invariant.
 */

#include <gtest/gtest.h>

#include "metrics/uxcost.h"
#include "runner/experiment.h"

namespace dream {
namespace {

TEST(Smoke, EverySchedulerRunsEveryScenario)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    for (const auto preset : workload::allScenarioPresets()) {
        const auto scenario = workload::makeScenario(preset);
        for (const auto kind :
             {runner::SchedKind::Fcfs, runner::SchedKind::StaticFcfs,
              runner::SchedKind::Veltair, runner::SchedKind::Planaria,
              runner::SchedKind::DreamFull}) {
            auto sched = runner::makeScheduler(kind);
            const auto r =
                runner::runOnce(system, scenario, *sched, {5e5, 1});
            EXPECT_GT(r.totalFrames(), 0u)
                << toString(preset) << " / " << sched->name();
            EXPECT_GE(metrics::uxCost(r), 0.0);
        }
    }
}

} // namespace
} // namespace dream
