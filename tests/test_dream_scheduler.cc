/** @file Tests for the composed DREAM scheduler. */

#include <gtest/gtest.h>

#include "core/dream_scheduler.h"
#include "runner/experiment.h"
#include "test_util.h"

namespace dream {
namespace {

TEST(DreamScheduler, NamesFollowTable4)
{
    EXPECT_EQ(core::DreamScheduler(core::DreamConfig::mapScore())
                  .name(),
              "DREAM-MapScore");
    EXPECT_EQ(core::DreamScheduler(core::DreamConfig::smartDropConfig())
                  .name(),
              "DREAM-SmartDrop");
    EXPECT_EQ(core::DreamScheduler(core::DreamConfig::full()).name(),
              "DREAM-Full");
    EXPECT_EQ(core::DreamScheduler(core::DreamConfig::fixedParams())
                  .name(),
              "DREAM-Fixed");
}

TEST(DreamScheduler, DispatchesOneLayerOnIdleAccelerator)
{
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    auto* req = cb.addRequest(t, 0.0, 1e5);
    core::DreamScheduler sched(core::DreamConfig::fixedParams());
    auto& ctx = cb.context(0.0);
    sched.reset(ctx);
    const auto plan = sched.plan(ctx);
    ASSERT_EQ(plan.dispatches.size(), 1u);
    EXPECT_EQ(plan.dispatches[0].requestId, req->id);
    EXPECT_EQ(plan.dispatches[0].numLayers, 1u);
    EXPECT_EQ(plan.dispatches[0].slices, 0u);
}

TEST(DreamScheduler, EmptyPlanWhenNothingReady)
{
    test::ContextBuilder cb;
    cb.addTask(test::toyModel());
    core::DreamScheduler sched(core::DreamConfig::fixedParams());
    auto& ctx = cb.context(0.0);
    sched.reset(ctx);
    EXPECT_TRUE(sched.plan(ctx).dispatches.empty());
}

TEST(DreamScheduler, PicksPreferredAcceleratorWhenFree)
{
    test::ContextBuilder cb;
    models::Model m;
    m.name = "rnnish";
    m.layers.push_back(models::rnn("lstm", 1024, 2048, 16));
    const auto t = cb.addTask(std::move(m));
    cb.addRequest(t, 0.0, 1e6);
    core::DreamScheduler sched(core::DreamConfig::fixedParams());
    auto& ctx = cb.context(0.0);
    sched.reset(ctx);
    const auto plan = sched.plan(ctx);
    ASSERT_EQ(plan.dispatches.size(), 1u);
    // Accelerator 0 is WS: the right home for an RNN layer.
    EXPECT_EQ(plan.dispatches[0].accel, 0);
}

TEST(DreamScheduler, SettleRuleWaitsForMatchedAccelerator)
{
    test::ContextBuilder cb;
    models::Model m;
    m.name = "rnnish";
    // SRAM-resident weights: compute-bound, so the WS/OS latency gap
    // is large and the settle rule applies.
    m.layers.push_back(models::rnn("lstm", 1024, 2048, 16));
    const auto t = cb.addTask(std::move(m));
    cb.addRequest(t, 0.0, 1e6); // plenty of slack
    // WS (the preferred accelerator) briefly busy; OS idle.
    cb.accels()[0].runningJobs = 1;
    cb.accels()[0].freeSlices = 0;
    cb.accels()[0].busyUntilUs = 500.0;
    core::DreamScheduler sched(core::DreamConfig::fixedParams());
    auto& ctx = cb.context(0.0);
    sched.reset(ctx);
    const auto plan = sched.plan(ctx);
    // Waiting 500 us for WS beats settling for the mismatched OS.
    EXPECT_TRUE(plan.dispatches.empty());
}

TEST(DreamScheduler, SettlesWhenDeadlineDemands)
{
    test::ContextBuilder cb;
    models::Model m;
    m.name = "rnnish";
    m.layers.push_back(models::rnn("lstm", 1024, 2048, 16));
    const auto t = cb.addTask(std::move(m));
    auto* req = cb.addRequest(t, 0.0, 1e6);
    cb.accels()[0].runningJobs = 1;
    cb.accels()[0].freeSlices = 0;
    cb.accels()[0].busyUntilUs = 9e5; // WS busy for a long time
    // Make the deadline too tight to wait for WS.
    req->deadlineUs = 2e4;
    core::DreamScheduler sched(core::DreamConfig::fixedParams());
    auto& ctx = cb.context(0.0);
    sched.reset(ctx);
    const auto plan = sched.plan(ctx);
    ASSERT_EQ(plan.dispatches.size(), 1u);
    EXPECT_EQ(plan.dispatches[0].accel, 1); // settle for OS
}

/** WS, then two OS accelerators of 1K and 2K PEs. */
std::vector<hw::AcceleratorConfig>
wsAndTwoOs()
{
    using hw::Dataflow;
    return {test::accelerator("WS", Dataflow::WeightStationary),
            test::accelerator("OS-1K", Dataflow::OutputStationary, 1024),
            test::accelerator("OS-2K", Dataflow::OutputStationary)};
}

/** An RNN head on wsAndTwoOs(), WS (its best) busy until
 *  @p ws_busy_until_us; the OS ones are both far off and idle. */
struct SettleFixture {
    SettleFixture(double deadline_us, double ws_busy_until_us)
        : cb(wsAndTwoOs())
    {
        models::Model m;
        m.name = "rnnish";
        m.layers.push_back(models::rnn("lstm", 1024, 2048, 16));
        req = cb.addRequest(cb.addTask(std::move(m)), 0.0, deadline_us);
        cb.accels()[0].runningJobs = 1;
        cb.accels()[0].freeSlices = 0;
        cb.accels()[0].busyUntilUs = ws_busy_until_us;
    }

    test::ContextBuilder cb;
    sim::Request* req = nullptr;
};

TEST(DreamScheduler, SafeWaitSkipsEveryFarOffAccelerator)
{
    SettleFixture f(1e6, 500.0);
    auto& ctx = f.cb.context(0.0);
    const auto cfg = core::DreamConfig::fixedParams();
    const auto row = f.cb.costs().view(f.req->path[0]);
    for (size_t a = 1; a < 3; ++a) {
        ASSERT_GT(row.cost(a).latencyUs,
                  cfg.settleFactor * row.agg().minLatencyUs);
    }
    core::DreamScheduler sched(cfg);
    sched.reset(ctx);
    // A safe wait skips both idle OS accelerators.
    EXPECT_TRUE(sched.plan(ctx).dispatches.empty());
}

TEST(DreamScheduler, TightDeadlineSettlesOnTheBestFarOffAccelerator)
{
    SettleFixture f(2e4, 9e5);
    auto& ctx = f.cb.context(0.0);
    core::DreamScheduler sched(core::DreamConfig::fixedParams());
    sched.reset(ctx);
    const double s1 = sched.mapScore().score(ctx, *f.req, 1).mapScore;
    const double s2 = sched.mapScore().score(ctx, *f.req, 2).mapScore;
    ASSERT_NE(s1, s2);
    const auto plan = sched.plan(ctx);
    ASSERT_EQ(plan.dispatches.size(), 1u);
    EXPECT_EQ(plan.dispatches[0].accel, s2 > s1 ? 2 : 1);
}

TEST(DreamScheduler, ResetRestoresConfiguredParams)
{
    auto cfg = core::DreamConfig::fixedParams(0.3, 1.7);
    core::DreamScheduler sched(cfg);
    test::ContextBuilder cb;
    cb.addTask(test::toyModel());
    auto& ctx = cb.context(0.0);
    sched.reset(ctx);
    EXPECT_DOUBLE_EQ(sched.mapScore().alpha(), 0.3);
    EXPECT_DOUBLE_EQ(sched.mapScore().beta(), 1.7);
}

TEST(DreamScheduler, FullConfigRunsEndToEnd)
{
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Os2Ws);
    const auto scenario =
        workload::makeScenario(workload::ScenarioPreset::VrGaming);
    core::DreamScheduler sched(core::DreamConfig::full());
    const auto r = runner::runOnce(system, scenario, sched, {1e6, 3});
    EXPECT_GT(r.totalFrames(), 0u);
    // The online tuner must have been exercised.
    EXPECT_GE(sched.tuner().completedSteps(), 1);
}

TEST(DreamScheduler, ReusedInstanceMatchesFresh)
{
    // One scheduler instance may serve several runs (Simulator::run
    // resets it first), so reset() must leave DREAM-Full, online
    // tuner included, exactly as a fresh instance starts.
    const auto system = hw::makeSystem(hw::SystemPreset::Sys4k1Ws2Os);
    for (const auto preset : {workload::ScenarioPreset::VrGaming,
                              workload::ScenarioPreset::ArSocial,
                              workload::ScenarioPreset::DroneOutdoor}) {
        SCOPED_TRACE(workload::toString(preset));
        const auto scenario = workload::makeScenario(preset, 0.9);
        core::DreamScheduler reused(core::DreamConfig::full());
        runner::runOnce(system, scenario, reused, {1e6, 3});
        const auto second =
            runner::runOnce(system, scenario, reused, {1e6, 7});

        core::DreamScheduler fresh(core::DreamConfig::full());
        const auto first =
            runner::runOnce(system, scenario, fresh, {1e6, 7});
        test::expectStatsBitIdentical(scenario, second, first);
        EXPECT_EQ(reused.tuner().completedSteps(),
                  fresh.tuner().completedSteps());
        EXPECT_EQ(reused.tuner().retriggers(),
                  fresh.tuner().retriggers());
    }
}

} // namespace
} // namespace dream
