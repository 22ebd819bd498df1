/** @file Tests for the adaptivity engine (offline search + tuner). */

#include <cmath>

#include <gtest/gtest.h>

#include "core/adaptivity.h"
#include "test_util.h"

namespace dream {
namespace {

TEST(ParamSearch, ConvergesOnConvexBowl)
{
    // Minimum at (0.7, 1.3).
    const auto bowl = [](double a, double b) {
        return (a - 0.7) * (a - 0.7) + (b - 1.3) * (b - 1.3);
    };
    const core::ParamSearch search{};
    const auto r = search.optimize(test::serialBatch(bowl), 1.9, 0.1);
    EXPECT_NEAR(r.alpha, 0.7, 0.15);
    EXPECT_NEAR(r.beta, 1.3, 0.15);
    EXPECT_LT(r.cost, 0.05);
    EXPECT_GT(r.evaluations, 10);
    EXPECT_FALSE(r.trajectory.empty());
}

TEST(ParamSearch, RespectsBounds)
{
    const auto edge = [](double a, double b) { return -(a + b); };
    const core::ParamSearch search{};
    const auto r = search.optimize(test::serialBatch(edge), 1.0, 1.0);
    EXPECT_LE(r.alpha, 2.0);
    EXPECT_LE(r.beta, 2.0);
    EXPECT_GE(r.alpha, 0.0);
    EXPECT_GE(r.beta, 0.0);
    // The optimum of -(a+b) on [0,2]^2 is the (2,2) corner.
    EXPECT_NEAR(r.alpha, 2.0, 0.26);
    EXPECT_NEAR(r.beta, 2.0, 0.26);
}

TEST(ParamSearch, TrajectoryMonotoneSteps)
{
    const auto bowl = [](double a, double b) {
        return (a - 1.0) * (a - 1.0) + (b - 1.0) * (b - 1.0);
    };
    const core::ParamSearch search{};
    const auto r = search.optimize(test::serialBatch(bowl), 0.0, 2.0);
    // Accepted cost never increases along the trajectory.
    for (size_t i = 1; i < r.trajectory.size(); ++i)
        EXPECT_LE(r.trajectory[i].cost, r.trajectory[i - 1].cost + 1e-12);
    // Steps are numbered consecutively from zero.
    for (size_t i = 0; i < r.trajectory.size(); ++i)
        EXPECT_EQ(r.trajectory[i].step, int(i));
}

TEST(ParamSearch, RadiusShrinksBelowThreshold)
{
    int evals = 0;
    const auto counting = [&evals](double, double) {
        ++evals;
        return 1.0;
    };
    const core::ParamSearch search{};
    const auto r = search.optimize(test::serialBatch(counting), 1.0, 1.0);
    // Radii 0.5, 0.25, 0.125, 0.0625 (the next, 0.03125, is below
    // the 0.05 threshold) -> 4 refinement steps + initial point.
    EXPECT_EQ(r.trajectory.size(), 5u);
    EXPECT_EQ(evals, r.evaluations);
}

TEST(WindowedObjective, UsesDeltasBetweenSnapshots)
{
    sim::RunStats begin, end;
    begin.tasks.resize(1);
    end.tasks.resize(1);
    begin.tasks[0].totalFrames = 50;
    begin.tasks[0].violatedFrames = 5;
    begin.tasks[0].energyMj = 10.0;
    begin.tasks[0].worstCaseEnergyMj = 20.0;
    end.tasks[0].totalFrames = 100;
    end.tasks[0].violatedFrames = 15;
    end.tasks[0].energyMj = 30.0;
    end.tasks[0].worstCaseEnergyMj = 60.0;
    // Window: 50 frames, 10 violations, 20/40 energy.
    const double v = core::windowedObjective(begin, end);
    EXPECT_DOUBLE_EQ(v, (10.0 / 50.0) * (20.0 / 40.0));
}

TEST(OnlineTuner, DisabledWhenConfigSaysSo)
{
    auto cfg = core::DreamConfig::fixedParams(1.0, 1.0);
    core::OnlineTuner tuner(cfg);
    core::MapScoreEngine engine(1.0, 1.0);
    test::ContextBuilder cb;
    cb.addTask(test::toyModel());
    EXPECT_LT(tuner.update(cb.context(0.0), engine), 0.0);
    EXPECT_FALSE(tuner.tuning());
}

TEST(OnlineTuner, RunsTrialRoundsAndConverges)
{
    core::OnlineTuner tuner(core::DreamConfig::mapScore());
    core::MapScoreEngine engine(1.0, 1.0);
    test::ContextBuilder cb;
    const auto t = cb.addTask(test::toyModel());
    cb.addRequest(t, 0.0, 1e6);

    double now = 0.0;
    double wake = tuner.update(cb.context(now), engine);
    EXPECT_GT(wake, now);
    EXPECT_TRUE(tuner.tuning());
    // Drive the trial state machine to completion: radii 0.5, 0.25,
    // 0.125 and 0.0625, at most five trials each.
    for (int i = 0; i < 50 && tuner.tuning(); ++i) {
        now = wake > now ? wake : now + 100.0;
        wake = tuner.update(cb.context(now), engine);
    }
    EXPECT_FALSE(tuner.tuning());
    EXPECT_EQ(tuner.completedSteps(), 4);
    // Parameters remain within the legal range [0, 2].
    EXPECT_GE(engine.alpha(), 0.0);
    EXPECT_LE(engine.alpha(), 2.0);
    EXPECT_GE(engine.beta(), 0.0);
    EXPECT_LE(engine.beta(), 2.0);
}

TEST(OnlineTuner, IdleTunerRetriggersOnTaskSetAndLoadChanges)
{
    core::OnlineTuner tuner(core::DreamConfig::mapScore());
    core::MapScoreEngine engine(1.0, 1.0);
    test::ContextBuilder cb;
    const auto t0 = cb.addTask(test::toyModel());
    const auto t1 = cb.addTask(test::toyModel("second"));
    cb.addRequest(t0, 0.0, 1e6);

    // Drive the trial rounds to completion, as
    // RunsTrialRoundsAndConverges does; return the last time used.
    double now = 0.0;
    double wake = tuner.update(cb.context(now), engine);
    const auto settle = [&] {
        for (int i = 0; i < 50 && tuner.tuning(); ++i) {
            now = wake > now ? wake : now + 100.0;
            wake = tuner.update(cb.context(now), engine);
        }
        ASSERT_FALSE(tuner.tuning());
    };
    settle();
    EXPECT_EQ(tuner.retriggers(), 0);

    // Idle with the same task set and no violations: no new round.
    now += 100.0;
    EXPECT_LT(tuner.update(cb.context(now), engine), 0.0);
    EXPECT_FALSE(tuner.tuning());
    EXPECT_EQ(tuner.retriggers(), 0);

    // A live frame of a task the tuner has not seen starts a round.
    cb.addRequest(t1, now, now + 1e6);
    now += 100.0;
    wake = tuner.update(cb.context(now), engine);
    EXPECT_GT(wake, now);
    EXPECT_TRUE(tuner.tuning());
    EXPECT_EQ(tuner.retriggers(), 1);
    settle();
    // The idle check that started the round recorded the new task
    // set and the violation fraction (0).
    now += 100.0;
    EXPECT_LT(tuner.update(cb.context(now), engine), 0.0);
    EXPECT_EQ(tuner.retriggers(), 1);

    // A violation-fraction move of exactly 0.15 is not a load change.
    sim::TaskStats& stats = cb.stats().tasks[size_t(t0)];
    stats.totalFrames = 100;
    stats.violatedFrames = 15;
    now += 100.0;
    EXPECT_LT(tuner.update(cb.context(now), engine), 0.0);
    EXPECT_FALSE(tuner.tuning());
    EXPECT_EQ(tuner.retriggers(), 1);

    // A move of more than 0.15 from the last check (0.15 -> 0.31)
    // starts a round.
    stats.violatedFrames = 31;
    now += 100.0;
    wake = tuner.update(cb.context(now), engine);
    EXPECT_GT(wake, now);
    EXPECT_TRUE(tuner.tuning());
    EXPECT_EQ(tuner.retriggers(), 2);
    settle();
    EXPECT_EQ(tuner.retriggers(), 2);
}

} // namespace
} // namespace dream
