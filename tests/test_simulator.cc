/** @file Integration tests for the discrete-event simulator. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "core/dream_scheduler.h"
#include "costmodel/cost_table_cache.h"
#include "metrics/uxcost.h"
#include "runner/experiment.h"
#include "sched/fcfs.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace dream {
namespace {

sim::RunStats
runFcfs(hw::SystemPreset sys_preset,
        workload::ScenarioPreset sc_preset, double window_us,
        uint64_t seed)
{
    const auto system = hw::makeSystem(sys_preset);
    const auto scenario = workload::makeScenario(sc_preset);
    sched::FcfsScheduler fcfs;
    return runner::runOnce(system, scenario, fcfs, {window_us, seed});
}

TEST(Simulator, FrameAccountingConservation)
{
    const auto stats = runFcfs(hw::SystemPreset::Sys4k1Ws2Os,
                               workload::ScenarioPreset::DroneOutdoor,
                               1e6, 3);
    for (const auto& ts : stats.tasks) {
        EXPECT_GT(ts.totalFrames, 0u) << ts.model;
        EXPECT_LE(ts.droppedFrames, ts.violatedFrames) << ts.model;
        EXPECT_LE(ts.violatedFrames,
                  ts.totalFrames) << ts.model;
        EXPECT_LE(ts.completedFrames, ts.totalFrames) << ts.model;
        // Every counted frame either completed or is violated
        // (dropped / unfinished frames are violations).
        EXPECT_GE(ts.completedFrames + ts.violatedFrames,
                  ts.totalFrames) << ts.model;
        EXPECT_GE(ts.energyMj, 0.0);
        EXPECT_GE(ts.worstCaseEnergyMj, 0.0);
    }
}

TEST(Simulator, RootFrameCountsMatchFps)
{
    const auto stats = runFcfs(hw::SystemPreset::Sys8k2Ws,
                               workload::ScenarioPreset::DroneOutdoor,
                               2e6, 3);
    // Drone_Outdoor: SSD 30 FPS, TrailNet 60, SOSNet 60 over 2 s.
    EXPECT_EQ(stats.tasks[0].totalFrames, 60u);
    EXPECT_EQ(stats.tasks[1].totalFrames, 120u);
    EXPECT_EQ(stats.tasks[2].totalFrames, 120u);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const auto a = runFcfs(hw::SystemPreset::Sys4k1Os2Ws,
                           workload::ScenarioPreset::ArCall, 1e6, 9);
    const auto b = runFcfs(hw::SystemPreset::Sys4k1Os2Ws,
                           workload::ScenarioPreset::ArCall, 1e6, 9);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (size_t t = 0; t < a.tasks.size(); ++t) {
        EXPECT_EQ(a.tasks[t].violatedFrames, b.tasks[t].violatedFrames);
        EXPECT_EQ(a.tasks[t].completedFrames,
                  b.tasks[t].completedFrames);
        EXPECT_DOUBLE_EQ(a.tasks[t].energyMj, b.tasks[t].energyMj);
    }
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
}

TEST(Simulator, SeedChangesDynamicOutcomes)
{
    const auto a = runFcfs(hw::SystemPreset::Sys4k1Ws2Os,
                           workload::ScenarioPreset::ArCall, 2e6, 1);
    const auto b = runFcfs(hw::SystemPreset::Sys4k1Ws2Os,
                           workload::ScenarioPreset::ArCall, 2e6, 2);
    // GNMT is cascade-gated: different seeds trigger different counts.
    EXPECT_NE(a.tasks[1].totalFrames, b.tasks[1].totalFrames);
}

TEST(Simulator, CascadeChildrenOnlyAfterParentCompletes)
{
    const auto stats = runFcfs(hw::SystemPreset::Sys8k2Ws,
                               workload::ScenarioPreset::ArCall, 2e6,
                               7);
    // GNMT frames can never outnumber completed KWS frames.
    EXPECT_LE(stats.tasks[1].totalFrames,
              stats.tasks[0].completedFrames);
    EXPECT_GT(stats.tasks[1].totalFrames, 0u);
}

TEST(Simulator, SameWorkloadForEverySchedulerSameSeed)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys8k2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::VrGaming);
    sched::FcfsScheduler fcfs;
    core::DreamScheduler dream(core::DreamConfig::mapScore());
    const auto a =
        runner::runOnce(system, scenario, fcfs, {1e6, 5});
    const auto b =
        runner::runOnce(system, scenario, dream, {1e6, 5});
    // Root-task frame counts are workload properties, not scheduler
    // properties.
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (size_t t = 0; t < a.tasks.size(); ++t) {
        if (scenario.tasks[t].dependsOn == workload::kNoParent) {
            EXPECT_EQ(a.tasks[t].totalFrames, b.tasks[t].totalFrames);
        }
    }
}

TEST(Simulator, EnergyIsChargedAndContextSwitchesCounted)
{
    // Layer-granularity scheduling (DREAM) migrates requests between
    // accelerators mid-model, which is what incurs context switches;
    // whole-model FCFS legitimately has none.
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArSocial);
    core::DreamScheduler dream(core::DreamConfig::mapScore());
    const auto stats =
        runner::runOnce(system, scenario, dream, {1e6, 3});
    EXPECT_GT(stats.totalEnergyMj(), 0.0);
    EXPECT_GT(stats.contextSwitches, 0u);
    EXPECT_GT(stats.contextSwitchEnergyMj, 0.0);
    EXPECT_LT(stats.contextSwitchEnergyMj, stats.totalEnergyMj());
    EXPECT_GT(stats.schedulerInvocations, 0u);

    const auto fcfs_stats =
        runFcfs(hw::SystemPreset::Sys4k1Ws2Os,
                workload::ScenarioPreset::ArSocial, 1e6, 3);
    EXPECT_EQ(fcfs_stats.contextSwitches, 0u);
}

TEST(Simulator, WindowTruncationExcludesTailFrames)
{
    // Frames whose deadline falls outside the window are not counted.
    const auto short_run =
        runFcfs(hw::SystemPreset::Sys8k2Ws,
                workload::ScenarioPreset::DroneOutdoor, 5e5, 3);
    EXPECT_EQ(short_run.tasks[1].totalFrames, 30u); // 60 FPS x 0.5 s
}

TEST(Simulator, SupernetVariantTalliesMatchStartedFrames)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArSocial);
    core::DreamScheduler dream(core::DreamConfig::full());
    const auto stats =
        runner::runOnce(system, scenario, dream, {1e6, 3});
    for (const auto& ts : stats.tasks) {
        if (ts.variantStarts.empty())
            continue;
        uint64_t started = 0;
        for (const auto v : ts.variantStarts)
            started += v;
        EXPECT_LE(started, ts.totalFrames);
        EXPECT_GT(started, 0u);
    }
}

/** Forwards to DREAM-Full and records every request it is shown. */
class RequestRecorder : public sim::Scheduler {
public:
    std::string name() const override { return inner_.name(); }
    void reset(const sim::SchedulerContext& ctx) override
    {
        inner_.reset(ctx);
    }
    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        seen.insert(ctx.live.begin(), ctx.live.end());
        return inner_.plan(ctx);
    }

    std::unordered_set<const sim::Request*> seen;

private:
    core::DreamScheduler inner_{core::DreamConfig::full()};
};

TEST(Simulator, FinishedRequestsReleaseTheirPerLayerState)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArSocial);
    for (auto& task : scenario.tasks)
        task.fps *= 3.0; // overload, so SmartDrop drops frames
    const auto costs = cost::acquireCostTable(system, scenario);
    sim::SimConfig cfg;
    cfg.windowUs = 5e5;
    cfg.seed = 3;

    // run() ends in finishStream(); the simulator (which owns the
    // requests) is still alive below.
    sim::Simulator simulator(system, scenario, *costs, cfg);
    RequestRecorder recorder;
    const sim::RunStats recorded = simulator.run(recorder);

    uint64_t completed = 0, dropped = 0;
    for (const sim::Request* r : recorder.seen) {
        if (!r->finished())
            continue;
        (r->done ? completed : dropped) += 1;
        SCOPED_TRACE("request " + std::to_string(r->id));
        // Both handles are dropped: the request references no layer
        // list and no resolution.
        EXPECT_TRUE(r->path.empty());
        EXPECT_EQ(r->path.id(), nullptr);
        EXPECT_EQ(r->resolution, nullptr);
        EXPECT_EQ(r->remainingLayers(), 0u);
    }
    EXPECT_GT(completed, 0u);
    EXPECT_GT(dropped, 0u);

    // Recording only observes: the run matches one without it.
    core::DreamScheduler plain(core::DreamConfig::full());
    sim::Simulator control(system, scenario, *costs, cfg);
    test::expectStatsBitIdentical(scenario, recorded, control.run(plain));
}

/** Forwards to DREAM-Full and records, for every live request it is
 *  shown, the path it holds and the resolution it reads. */
class PathRecorder : public sim::Scheduler {
public:
    std::string name() const override { return inner_.name(); }
    void reset(const sim::SchedulerContext& ctx) override
    {
        inner_.reset(ctx);
    }
    sim::Plan plan(const sim::SchedulerContext& ctx) override
    {
        for (const sim::Request* r : ctx.live) {
            requests.insert(r->id);
            resolutionsOf[r->path.id()].insert(r->resolution.get());
            if (r->variant > 0) {
                variantLists[{r->task, r->variant}].insert(r->path.id());
                switched.insert(r->id);
            }
        }
        return inner_.plan(ctx);
    }

    std::set<int> requests;
    /** Path identity -> the resolutions read through it. */
    std::map<const void*, std::set<const sim::Resolution*>>
        resolutionsOf;
    /** (task, variant) -> the paths of requests switched to it. */
    std::map<std::pair<workload::TaskId, int>, std::set<const void*>>
        variantLists;
    std::set<int> switched;

private:
    core::DreamScheduler inner_{core::DreamConfig::full()};
};

TEST(Simulator, RequestsOnOnePathShareOneResolution)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    auto scenario =
        workload::makeScenario(workload::ScenarioPreset::ArSocial);
    for (auto& task : scenario.tasks)
        task.fps *= 3.0; // overload, so DREAM switches variants
    const auto costs = cost::acquireCostTable(system, scenario);
    sim::SimConfig cfg;
    cfg.windowUs = 5e5;
    cfg.seed = 3;
    sim::Simulator simulator(system, scenario, *costs, cfg);
    PathRecorder recorder;
    simulator.run(recorder);

    // Each distinct path is resolved once per run: every request on
    // it reads one resolution, built for that path and this table.
    // Table lookups therefore scale with distinct paths, not frames.
    std::set<const sim::Resolution*> resolutions;
    for (const auto& [path, res] : recorder.resolutionsOf) {
        ASSERT_EQ(res.size(), 1u);
        const sim::Resolution* r = *res.begin();
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->path.id(), path);
        EXPECT_EQ(r->table, costs.get());
        resolutions.insert(r);
    }
    EXPECT_EQ(resolutions.size(), recorder.resolutionsOf.size());
    EXPECT_LT(10 * resolutions.size(), recorder.requests.size());

    // Every switch to one (task, variant) re-points its request to
    // the run's one list for it, and that list is the variant's path.
    size_t num_lists = 0;
    for (const auto& [variant, lists] : recorder.variantLists) {
        EXPECT_EQ(lists.size(), 1u)
            << "task " << variant.first << " variant " << variant.second;
        num_lists += lists.size();
        const sim::Resolution* r =
            *recorder.resolutionsOf.at(*lists.begin()).begin();
        const auto expected =
            scenario.tasks[size_t(variant.first)].model.variantPath(
                size_t(variant.second));
        ASSERT_EQ(r->path.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i)
            EXPECT_EQ(r->path[i].name, expected[i].name);
    }
    EXPECT_GT(recorder.switched.size(), num_lists)
        << "no two requests were switched to one (task, variant)";
}

} // namespace
} // namespace dream
